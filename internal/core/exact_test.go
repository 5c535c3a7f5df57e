package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"facsp/internal/cac"
	"facsp/internal/fuzzy"
)

// referenceInfer is the textbook Mamdani pass over an engine's public
// definition — Fuzzify, AND (min) across antecedents, max aggregation, and
// the general Centroid.Defuzz — which exact inference must reproduce bit
// for bit.
type referenceInfer struct {
	inputs []fuzzy.Variable
	output fuzzy.Variable
	rules  []fuzzy.Rule
}

func newReference(e *fuzzy.Engine) referenceInfer {
	return referenceInfer{inputs: e.Inputs(), output: e.Output(), rules: e.Rules()}
}

func (r referenceInfer) infer(in ...float64) (crisp float64, best int, err error) {
	grades := make([][]float64, len(r.inputs))
	for i, v := range r.inputs {
		grades[i] = v.Fuzzify(in[i])
	}
	strength := make([]float64, len(r.output.Terms))
	for _, rule := range r.rules {
		s := grades[0][rule.When[0]]
		for vi := 1; vi < len(rule.When); vi++ {
			s = math.Min(s, grades[vi][rule.When[vi]])
		}
		strength[rule.Then] = math.Max(strength[rule.Then], s)
	}
	best, bestS := -1, 0.0
	for t, s := range strength {
		if s > bestS {
			best, bestS = t, s
		}
	}
	crisp, err = fuzzy.Centroid{}.Defuzz(r.output, strength, fuzzy.DefaultSamples)
	return crisp, best, err
}

// axisPoints returns the probe points of one input axis: a uniform grid,
// the universe edges, every membership-function breakpoint inside the
// universe, and one point beyond each edge (clamped by the engine).
func axisPoints(v fuzzy.Variable, ticks int) []float64 {
	pts := []float64{v.Min - 1, v.Max + 1}
	for i := 0; i <= ticks; i++ {
		pts = append(pts, v.Min+(v.Max-v.Min)*float64(i)/float64(ticks))
	}
	for _, t := range v.Terms {
		for _, b := range t.MF.(fuzzy.PiecewiseLinear).Breakpoints() {
			if b >= v.Min && b <= v.Max {
				pts = append(pts, b)
			}
		}
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

func checkExact(t *testing.T, e *fuzzy.Engine, ref referenceInfer, in ...float64) {
	t.Helper()
	want, wantBest, err := ref.infer(in...)
	if err != nil {
		t.Fatalf("%s%v: reference: %v", e.Name(), in, err)
	}
	got, best, err := e.InferBest(in...)
	if err != nil {
		t.Fatalf("%s%v: %v", e.Name(), in, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) || best != wantBest {
		t.Fatalf("%s%v = (%v, term %d), reference (%v, term %d)", e.Name(), in, got, best, want, wantBest)
	}
}

// TestExactInferenceBitIdentical pins the contract of the sparse centroid
// path on the paper's two controllers: the crisp output's bits and the
// best term equal the general Centroid.Defuzz reference on a dense grid
// through every universe edge and breakpoint, and on exactRandomInputs
// random inputs shared between the two.
func TestExactInferenceBitIdentical(t *testing.T) {
	flc1, flc2, err := enginePair(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*fuzzy.Engine{flc1, flc2} {
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			ref := newReference(e)
			in := e.Inputs()
			a, b, c := axisPoints(in[0], 10), axisPoints(in[1], 10), axisPoints(in[2], 10)
			for _, x := range a {
				for _, y := range b {
					for _, z := range c {
						checkExact(t, e, ref, x, y, z)
					}
				}
			}
			rng := rand.New(rand.NewPCG(12, uint64(len(e.Name()))))
			uniform := func(v fuzzy.Variable) float64 { return v.Min + rng.Float64()*(v.Max-v.Min) }
			for i := 0; i < exactRandomInputs/2; i++ {
				checkExact(t, e, ref, uniform(in[0]), uniform(in[1]), uniform(in[2]))
			}
		})
	}
}

// admitScript drives one controller through a seeded request stream —
// admits, with the oldest grant released once four are held — and
// returns every decision.
func admitScript(ctrl cac.Controller, seed uint64, n int) []cac.Decision {
	rng := rand.New(rand.NewPCG(seed, 7))
	bw := [3]float64{TextBU, VoiceBU, VideoBU}
	var held []cac.Request
	out := make([]cac.Decision, 0, n)
	for i := 0; i < n; i++ {
		req := cac.Request{
			ID:        uint64(i),
			Speed:     rng.Float64() * SpeedMax,
			Angle:     AngleMin + rng.Float64()*(AngleMax-AngleMin),
			Bandwidth: bw[rng.IntN(3)],
			RealTime:  rng.IntN(2) == 0,
			Handoff:   rng.IntN(5) == 0,
		}
		d := ctrl.Admit(req)
		out = append(out, d)
		if d.Accept {
			held = append(held, req)
		}
		if len(held) > 4 {
			if err := ctrl.Release(held[0]); err != nil {
				panic(err)
			}
			held = held[1:]
		}
	}
	return out
}

// TestSharedEnginesConcurrentAdmit runs many goroutines, each admitting on
// its own controller, where every controller shares the one process-wide
// FLC engine pair: under -race this proves exact inference leaves the
// shared engines untouched, and every goroutine's decisions equal a
// sequential run of the same script.
func TestSharedEnginesConcurrentAdmit(t *testing.T) {
	const workers, n = 8, 150
	build := func(i int) cac.Controller {
		if i%2 == 0 {
			f, err := NewFACSP(DefaultPConfig())
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		f, err := NewFACS(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	want := make([][]cac.Decision, workers)
	for i := range want {
		want[i] = admitScript(build(i), uint64(i), n)
	}

	ctrls := make([]cac.Controller, workers)
	for i := range ctrls {
		ctrls[i] = build(i)
	}
	p, q := ctrls[0].(*FACSP), ctrls[1].(*FACS)
	if p.flc1 != q.flc1 || p.flc2 != q.flc2 {
		t.Fatal("FACS and FACS-P controllers of the default config do not share one engine pair")
	}

	got := make([][]cac.Decision, workers)
	var wg sync.WaitGroup
	for i := range ctrls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = admitScript(ctrls[i], uint64(i), n)
		}()
	}
	wg.Wait()
	for i := range got {
		for k := range got[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("worker %d decision %d = %+v, sequential run gave %+v", i, k, got[i][k], want[i][k])
			}
		}
	}
}
