package perf

import (
	"fmt"

	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/core"
	"facsp/internal/experiment"
	"facsp/internal/hexgrid"
	"facsp/internal/scenario"
)

// The surface/ suite: the tiered decision-surface selector measured on the
// heterogeneous metro-city cell population. Every spec drives the same
// Admit+Release hot path over the same per-cell FACS-P bank with the same
// synthesized request stream; only the surface footprint differs. The
// tiered variant assigns each cell the tier its offered hotness rate earns
// (most cells cold on one shared coarse grid, downtown cells fine), the
// global-fine variant pins every cell to the finest grid — the difference
// is the cache-locality win tiering buys — and the exact variant runs the
// full Mamdani pipeline for scale.

// tieredQuantiles re-anchors the default ladder on the metro-city rate
// spread: ~70% of cells stay coarse, the top ~5% go fine.
var tieredQuantiles = []float64{0.70, 0.95}

// tieredMetroBank builds one FACS-P controller per live metro-city cell,
// each reading its surfaces from the per-slot tier assignment computed by
// assign from the scenario's offered hotness rates, through a Tiered
// selector (installed synchronously with Preset — the benchmark measures
// steady state, not the promotion transient).
func tieredMetroBank(tc core.TierConfig, assign func(rates []float64) ([]int, error)) ([]cac.Controller, *core.Tiered, error) {
	s, err := scenario.Load("metro-city")
	if err != nil {
		return nil, nil, err
	}
	cfg, err := s.ConfigFor(cityLoad, 1)
	if err != nil {
		return nil, nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = hexgrid.DiskTopology(hexgrid.Coord{}, cfg.Rings)
	}
	rates, err := cellsim.OfferedRates(cfg, tc.HalfLife)
	if err != nil {
		return nil, nil, err
	}
	tiers, err := assign(rates)
	if err != nil {
		return nil, nil, err
	}
	t, err := core.NewTiered(topo.Slots(), tc)
	if err != nil {
		return nil, nil, err
	}
	ctrls := make([]cac.Controller, 0, topo.Slots())
	for slot := 0; slot < topo.Slots(); slot++ {
		capacity := s.CapacityAt(topo.At(slot))
		if capacity <= 0 {
			continue // dead cell: no controller to measure
		}
		if err := t.Preset(slot, tiers[slot]); err != nil {
			return nil, nil, err
		}
		pc := core.DefaultPConfig()
		pc.Capacity = capacity
		pc.Surfaces = t.Cell(slot)
		ctrl, err := core.NewFACSP(pc)
		if err != nil {
			return nil, nil, err
		}
		// Park slot-varied handoff occupancy in the cell so the request
		// stream exercises the Cs axis, not just the empty-cell corner.
		for j := 0; j < slot%4; j++ {
			hold := cac.Request{ID: uint64(1000 + j), Speed: 10, Angle: 5, Bandwidth: 5, RealTime: true, Handoff: true}
			if d := ctrl.Admit(hold); !d.Accept {
				return nil, nil, fmt.Errorf("perf: preload handoff rejected at slot %d", slot)
			}
		}
		ctrls = append(ctrls, ctrl)
	}
	return ctrls, t, nil
}

// tieredAdmitBody round-robins Admit+Release over the bank with the
// cheap inline stream of diverse requests — every iteration hits a
// different neighbourhood of a different cell's surface, which is what
// makes the surface footprint (and so the tiering) visible: a single
// repeated query would sit in eight cached grid corners forever.
func tieredAdmitBody(ctrls []cac.Controller) Body {
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

// surfaceTieredSpec measures the hotness-assigned ladder: the default
// coarse/medium/fine split re-anchored at the metro-city rate quantiles.
func surfaceTieredSpec(name string, smoke bool) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		base := core.DefaultTierConfig()
		ctrls, _, err := tieredMetroBank(base, func(rates []float64) ([]int, error) {
			anchored, err := experiment.TiersAtQuantiles(base, rates, tieredQuantiles)
			if err != nil {
				return nil, err
			}
			tiers := make([]int, len(rates))
			for slot, r := range rates {
				tiers[slot] = anchored.TierFor(r)
			}
			return tiers, nil
		})
		if err != nil {
			return nil, err
		}
		return tieredAdmitBody(ctrls), nil
	}}
}

// surfaceGlobalFineSpec pins every cell to the single finest grid — the
// pre-tiering status quo the tiered spec is gated against.
func surfaceGlobalFineSpec(name string, smoke bool) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		tc := core.DefaultTierConfig()
		fine := tc.Tiers[len(tc.Tiers)-1].Resolution
		tc.Tiers = []core.SurfaceTier{{Resolution: fine, MinRate: 0}}
		ctrls, _, err := tieredMetroBank(tc, func(rates []float64) ([]int, error) {
			return make([]int, len(rates)), nil
		})
		if err != nil {
			return nil, err
		}
		return tieredAdmitBody(ctrls), nil
	}}
}

// surfaceExactSpec runs the same bank on full Mamdani inference — the
// accuracy reference the tier ladder's error tolerances are stated
// against, and the denominator of the headline surface speedup.
func surfaceExactSpec(name string, smoke bool) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		tc := core.DefaultTierConfig()
		tc.Tiers = []core.SurfaceTier{{Resolution: 0, MinRate: 0}}
		ctrls, _, err := tieredMetroBank(tc, func(rates []float64) ([]int, error) {
			return make([]int, len(rates)), nil
		})
		if err != nil {
			return nil, err
		}
		return tieredAdmitBody(ctrls), nil
	}}
}
