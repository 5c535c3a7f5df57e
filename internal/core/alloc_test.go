//go:build !race

package core

import (
	"testing"

	"facsp/internal/cac"
)

// TestSurfaceAdmitAllocFree pins the serving hot path: a surface-backed
// FACS-P controller decides an admission (and takes the release) without
// allocating. This is the per-request cost the bsd cell workers and the
// experiment sweeps pay millions of times (TestExactAdmitAllocFree pins
// the same for exact inference). Gated out of -race because the detector
// instruments allocations.
func TestSurfaceAdmitAllocFree(t *testing.T) {
	cfg := DefaultPConfig().WithSurfaceCache(0) // default surface resolution
	f, err := NewFACSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := cac.Request{ID: 1, Speed: 60, Angle: 15, Bandwidth: 5, RealTime: true}

	// Warm once: the first Admit may fault lazily-initialised state.
	d := f.Admit(req)
	if d.Accept {
		if err := f.Release(req); err != nil {
			t.Fatal(err)
		}
	}

	if n := testing.AllocsPerRun(500, func() {
		d := f.Admit(req)
		if d.Accept {
			if err := f.Release(req); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("surface-backed Admit+Release allocates %v per cycle, want 0", n)
	}
}

// TestExactAdmitAllocFree pins the exact-inference hot path: FACS and
// FACS-P decide an admission through the full FLC1 -> FLC2 Mamdani pass
// (and take the release) without allocating, on a stream of distinct
// requests so the inference sees many rule activations.
func TestExactAdmitAllocFree(t *testing.T) {
	facs, err := NewFACS(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	facsp, err := NewFACSP(DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []cac.Request{
		{ID: 1, Speed: 60, Angle: 15, Bandwidth: 5, RealTime: true},
		{ID: 2, Speed: 3, Angle: -170, Bandwidth: 1},
		{ID: 3, Speed: 118, Angle: 95, Bandwidth: 10, RealTime: true, Handoff: true},
		{ID: 4, Speed: 31, Angle: -44, Bandwidth: 5},
		{ID: 5, Speed: 87, Angle: 0, Bandwidth: 10, RealTime: true},
	}
	for _, ctrl := range []cac.Controller{facs, facsp} {
		i := 0
		cycle := func() {
			req := reqs[i%len(reqs)]
			i++
			if d := ctrl.Admit(req); d.Accept {
				if err := ctrl.Release(req); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // warm lazily-initialised state
		if n := testing.AllocsPerRun(500, cycle); n != 0 {
			t.Errorf("%T: exact Admit+Release allocates %v per cycle, want 0", ctrl, n)
		}
	}
}
