package perf

import (
	"fmt"

	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/hexgrid"
	"facsp/internal/scenario"
)

// The surface/ suite: the decision-surface resolution measured on the
// heterogeneous metro-city cell population. Every spec drives the same
// Admit+Release hot path over the same per-cell FACS-P bank with the same
// synthesized request stream; only the surface resolution differs. The
// global-fine variant runs every cell on the shared 65-tick grid, and the
// exact variant runs the full Mamdani pipeline for scale.

// metroBank builds one FACS-P controller per live metro-city cell at the
// given surface resolution (0 = exact inference). Every cell shares one
// compiled surface pair through the process-wide surface cache.
func metroBank(resolution int) ([]cac.Controller, error) {
	s, err := scenario.Load("metro-city")
	if err != nil {
		return nil, err
	}
	cfg, err := s.ConfigFor(cityLoad, 1)
	if err != nil {
		return nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = hexgrid.DiskTopology(hexgrid.Coord{}, cfg.Rings)
	}
	ctrls := make([]cac.Controller, 0, topo.Slots())
	for slot := 0; slot < topo.Slots(); slot++ {
		capacity := s.CapacityAt(topo.At(slot))
		if capacity <= 0 {
			continue // dead cell: no controller to measure
		}
		pc := core.DefaultPConfig()
		pc.Capacity = capacity
		pc.SurfaceResolution = resolution
		ctrl, err := core.NewFACSP(pc)
		if err != nil {
			return nil, err
		}
		// Park slot-varied handoff occupancy in the cell so the request
		// stream exercises the Cs axis, not just the empty-cell corner.
		for j := 0; j < slot%4; j++ {
			hold := cac.Request{ID: uint64(1000 + j), Speed: 10, Angle: 5, Bandwidth: 5, RealTime: true, Handoff: true}
			if d := ctrl.Admit(hold); !d.Accept {
				return nil, fmt.Errorf("perf: preload handoff rejected at slot %d", slot)
			}
		}
		ctrls = append(ctrls, ctrl)
	}
	return ctrls, nil
}

// bankAdmitBody round-robins Admit+Release over the bank with the cheap
// inline stream of diverse requests — every iteration hits a different
// neighbourhood of a different cell's surface, which is what makes the
// surface footprint visible: a single repeated query would sit in eight
// cached grid corners forever.
func bankAdmitBody(ctrls []cac.Controller) Body {
	return func(n int) (int64, error) {
		s := streamSeed
		for i := 0; i < n; i++ {
			x := s.next()
			req := cac.Request{
				ID:        1,
				Speed:     unit(x, 52) * 120,
				Angle:     unit(x, 40) * 180,
				Bandwidth: classBU[x&3],
				RealTime:  x&4 != 0,
			}
			ctrl := ctrls[i%len(ctrls)]
			if d := ctrl.Admit(req); d.Accept {
				if err := ctrl.Release(req); err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	}
}

// surfaceBankSpec measures the metro bank at one surface resolution.
func surfaceBankSpec(name string, smoke bool, resolution int) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		ctrls, err := metroBank(resolution)
		if err != nil {
			return nil, err
		}
		return bankAdmitBody(ctrls), nil
	}}
}
