//go:build !race

package fuzzy

import "testing"

// TestInferAllocFree pins exact inference with the default Centroid
// defuzzifier: Infer and InferBest work in stack buffers and the
// precompiled centroid table, without allocating. Gated out of -race
// because the detector instruments allocations.
func TestInferAllocFree(t *testing.T) {
	e := tipperEngine(t)
	inputs := [][2]float64{{0, 0}, {3.7, 6.2}, {10, 10}, {5, 2.5}, {-3, 14}}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		in := inputs[i%len(inputs)]
		i++
		if _, err := e.Infer(in[0], in[1]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.InferBest(in[0], in[1]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("exact Infer+InferBest allocates %v per call, want 0", n)
	}
}
