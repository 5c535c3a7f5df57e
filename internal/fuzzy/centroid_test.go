package fuzzy

import (
	"math"
	"math/rand/v2"
	"testing"
)

// referenceInfer is the textbook Mamdani pass the engine must reproduce
// bit for bit: Fuzzify each input, AND each rule's antecedents, max-aggregate
// per output term, and defuzzify with the general Centroid.Defuzz.
func referenceInfer(e *Engine, inputs ...float64) (crisp float64, best int, err error) {
	grades := make([][]float64, len(e.inputs))
	for i, v := range e.inputs {
		grades[i] = v.Fuzzify(inputs[i])
	}
	strength := make([]float64, len(e.output.Terms))
	for _, r := range e.rules {
		s := grades[0][r.When[0]]
		for vi := 1; vi < len(r.When); vi++ {
			s = e.and(s, grades[vi][r.When[vi]])
		}
		strength[r.Then] = math.Max(strength[r.Then], s)
	}
	best, bestS := -1, 0.0
	for t, s := range strength {
		if s > bestS {
			best, bestS = t, s
		}
	}
	crisp, err = Centroid{}.Defuzz(e.output, strength, e.samples)
	return crisp, best, err
}

// checkMatchesReference fails t unless Infer, InferBest and InferDetail all
// return the reference's crisp bits and best term at inputs.
func checkMatchesReference(t *testing.T, e *Engine, inputs ...float64) {
	t.Helper()
	want, wantBest, wantErr := referenceInfer(e, inputs...)
	got, gotBest, err := e.InferBest(inputs...)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s%v: error %v, reference error %v", e.name, inputs, err, wantErr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) || gotBest != wantBest {
		t.Fatalf("%s%v: InferBest = (%v, %d), reference (%v, %d)", e.name, inputs, got, gotBest, want, wantBest)
	}
	if crisp, _ := e.Infer(inputs...); math.Float64bits(crisp) != math.Float64bits(want) {
		t.Fatalf("%s%v: Infer = %v, reference %v", e.name, inputs, crisp, want)
	}
	res, _ := e.InferDetail(inputs...)
	if math.Float64bits(res.Crisp) != math.Float64bits(want) || res.BestTerm != wantBest {
		t.Fatalf("%s%v: InferDetail = (%v, %d), reference (%v, %d)", e.name, inputs, res.Crisp, res.BestTerm, want, wantBest)
	}
}

// overlapEngine maps two inputs onto an output partition of the given
// terms through a rule table that fires every output term somewhere.
func overlapEngine(t *testing.T, out Variable) *Engine {
	t.Helper()
	in := func(name string) Variable {
		return MustVariable(name, 0, 1,
			Term{Name: "lo", MF: LeftShoulder(0, 0.5)},
			Term{Name: "mid", MF: Tri(0.5, 0.5, 0.5)},
			Term{Name: "hi", MF: RightShoulder(0.5, 1)},
		)
	}
	inputs := []Variable{in("a"), in("b")}
	consequents := make([]string, 9)
	for i := range consequents {
		consequents[i] = out.Terms[i%len(out.Terms)].Name
	}
	rules, err := RuleTable(inputs, out, consequents)
	if err != nil {
		t.Fatal(err)
	}
	return MustEngine("overlap", inputs, out, rules)
}

func checkRandomAndGrid(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i <= 20; i++ {
		for j := 0; j <= 20; j++ {
			checkMatchesReference(t, e, float64(i)/20, float64(j)/20)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		checkMatchesReference(t, e, rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
	}
}

// TestCentroidTableThreeDeepOverlap exercises a stride above the paper's
// two: three output terms overlap around 0.5.
func TestCentroidTableThreeDeepOverlap(t *testing.T) {
	out := MustVariable("out", 0, 1,
		Term{Name: "o1", MF: LeftShoulder(0.1, 0.2)},
		Term{Name: "o2", MF: Tri(0.4, 0.3, 0.3)},
		Term{Name: "o3", MF: Tri(0.5, 0.3, 0.3)},
		Term{Name: "o4", MF: Tri(0.6, 0.3, 0.3)},
		Term{Name: "o5", MF: RightShoulder(0.8, 0.9)},
	)
	e := overlapEngine(t, out)
	if got := e.centroid.stride; got != 3 {
		t.Fatalf("centroid table stride = %d, want 3", got)
	}
	checkRandomAndGrid(t, e)
}

// TestCentroidTableSpanMerge exercises the merge of the fired terms'
// supports: supports with gaps between them, visited as separate spans
// (with a stride of one), and a support nested inside another.
func TestCentroidTableSpanMerge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		out    Variable
		stride int
	}{
		{"disjoint", MustVariable("out", 0, 1,
			Term{Name: "far-lo", MF: Tri(0.1, 0.05, 0.05)},
			Term{Name: "near", MF: Tri(0.5, 0.1, 0.1)},
			Term{Name: "far-hi", MF: Tri(0.9, 0.05, 0.3)},
		), 1},
		{"nested", MustVariable("out", 0, 1,
			Term{Name: "wide", MF: Tri(0.5, 0.4, 0.4)},
			Term{Name: "narrow", MF: Tri(0.45, 0.05, 0.05)},
			Term{Name: "edge", MF: RightShoulder(0.9, 1)},
		), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := overlapEngine(t, tc.out)
			if got := e.centroid.stride; got != tc.stride {
				t.Fatalf("centroid table stride = %d, want %d", got, tc.stride)
			}
			checkRandomAndGrid(t, e)
		})
	}
}

// TestCentroidTableSupports pins the table's shape on the tipper output:
// every sample row lists exactly the terms with a positive grade there,
// padded with the sentinel, and each term's [lo, hi) is its non-zero run.
func TestCentroidTableSupports(t *testing.T) {
	e := tipperEngine(t)
	c, out := e.centroid, e.output
	nt := len(out.Terms)
	for i, x := range c.x {
		row := c.cells[i*c.stride : (i+1)*c.stride]
		k := 0
		for ti, term := range out.Terms {
			g := term.MF.Grade(x)
			inSupport := i >= c.lo[ti] && i < c.hi[ti]
			if (g > 0) != inSupport {
				t.Fatalf("sample %d (x=%v): term %d grade %v, support [%d, %d)", i, x, ti, g, c.lo[ti], c.hi[ti])
			}
			if g > 0 {
				if row[k].t != ti || math.Float64frombits(row[k].g) != g {
					t.Fatalf("sample %d: cell %d = %+v, want term %d grade %v", i, k, row[k], ti, g)
				}
				k++
			}
		}
		for ; k < len(row); k++ {
			if row[k].t != nt || row[k].g != 0 {
				t.Fatalf("sample %d: padding cell %d = %+v, want the zero sentinel", i, k, row[k])
			}
		}
	}
}

// TestInferNonCentroidMatchesDetail pins the general-defuzzifier path of
// the shared inference core: InferBest agrees with InferDetail's trace.
func TestInferNonCentroidMatchesDetail(t *testing.T) {
	e := tipperEngine(t, WithDefuzzifier(Height{}))
	if e.centroid != nil {
		t.Fatal("Height engine built a centroid table")
	}
	for _, in := range [][2]float64{{0, 0}, {3.7, 6.2}, {10, 10}, {5, 2.5}} {
		crisp, best, err := e.InferBest(in[0], in[1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.InferDetail(in[0], in[1])
		if err != nil {
			t.Fatal(err)
		}
		if crisp != res.Crisp || best != res.BestTerm {
			t.Errorf("%v: InferBest = (%v, %d), InferDetail = (%v, %d)", in, crisp, best, res.Crisp, res.BestTerm)
		}
	}
}
