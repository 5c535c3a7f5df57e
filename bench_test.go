package facsp_test

// Benchmark harness: every benchmark is a named spec in the
// internal/perf registry — micro-benchmarks of the inference and
// admission hot paths plus one reduced sweep per scheme x figure — run
// here through perf.BenchSpec. cmd/facs-bench measures the same registry
// into BENCH.json for the CI regression gate, so `go test -bench .` and
// the gate can never drift apart.
//
//	go test -bench . -benchmem
//
// EXPERIMENTS.md ("Performance") records the tracked trajectory.

import (
	"testing"
	"time"

	"facsp"
	"facsp/internal/perf"
)

// BenchmarkPerf runs the full perf registry as sub-benchmarks, one per
// spec name (e.g. BenchmarkPerf/sweep/adapt-drops/surface).
func BenchmarkPerf(b *testing.B) {
	for _, s := range perf.Specs() {
		s := s
		b.Run(s.Name, func(b *testing.B) { perf.BenchSpec(b, s) })
	}
}

// TestSurfaceAdmitSpeedup enforces the surface cache's reason to exist: the
// cached Admit hot path must be at least 5x faster than exact inference.
// Measured headroom on a 2-CPU x86-64 host is ~18x without -race and ~32x
// under -race, so the bar holds even on loaded CI machines.
func TestSurfaceAdmitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	exact, err := facsp.NewFACSP()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := facsp.NewFACSP(facsp.WithSurfaceCache(0))
	if err != nil {
		t.Fatal(err)
	}
	req := facsp.NewRequest(facsp.Voice, 60, 15)
	// Best of several windows: a single GC pause or scheduler stall landing
	// in one (sub-millisecond) cached window must not flip the verdict.
	measure := func(ctrl facsp.Controller, n, rounds int) time.Duration {
		// Warm up (and warm the shared surface cache) before timing.
		for i := 0; i < 50; i++ {
			if d := ctrl.Admit(req); d.Accept {
				if err := ctrl.Release(req); err != nil {
					t.Fatal(err)
				}
			}
		}
		best := time.Duration(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				if d := ctrl.Admit(req); d.Accept {
					if err := ctrl.Release(req); err != nil {
						t.Fatal(err)
					}
				}
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	const n = 5000
	exactD := measure(exact, n, 3)
	cachedD := measure(cached, n, 5)
	ratio := float64(exactD) / float64(cachedD)
	t.Logf("exact %v, surface-cached %v for %d admissions: %.1fx", exactD, cachedD, n, ratio)
	if ratio < 5 {
		t.Errorf("surface-cached Admit only %.1fx faster than exact inference, want >= 5x", ratio)
	}
}
