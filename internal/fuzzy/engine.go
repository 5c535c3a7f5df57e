package fuzzy

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// TNorm is a fuzzy AND: it combines the membership grades of a rule's
// antecedents into the rule's activation strength.
type TNorm func(a, b float64) float64

// MinAND is the standard Mamdani conjunction (Zadeh AND).
func MinAND(a, b float64) float64 { return math.Min(a, b) }

// ProductAND is the probabilistic conjunction; it yields smoother control
// surfaces than MinAND and is offered for ablation studies.
func ProductAND(a, b float64) float64 { return a * b }

const (
	// DefaultSamples is the default numeric-integration resolution for
	// integrating defuzzifiers. 1001 points over a unit universe keeps the
	// centroid error well below the softness of the linguistic scale.
	DefaultSamples = 1001

	// minSamples guards against degenerate integration grids.
	minSamples = 16
)

// Engine is an immutable Mamdani fuzzy-inference engine: fuzzifier,
// rule-base inference (AND across antecedents, max aggregation across
// rules), and defuzzifier, as in Fig. 2 of the paper.
//
// An Engine is safe for concurrent use: Infer does not mutate engine state.
type Engine struct {
	name    string
	inputs  []Variable
	output  Variable
	rules   []Rule
	and     TNorm
	defuzz  Defuzzifier
	samples int

	// centroid is the sparse table behind the centroid fast path, nil
	// unless the defuzzifier is Centroid; see centroid.go.
	centroid *centroidTable
	// nGrades is the total term count across the inputs: the length of the
	// flat grade vector one inference fuzzifies into, input by input.
	// ruleAt[ri*len(inputs)+vi] is the index in that vector of rule ri's
	// antecedent on input vi.
	nGrades int
	ruleAt  []int
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithAND selects the conjunction operator (default MinAND).
func WithAND(and TNorm) Option { return func(e *Engine) { e.and = and } }

// WithDefuzzifier selects the defuzzifier (default Centroid).
func WithDefuzzifier(d Defuzzifier) Option { return func(e *Engine) { e.defuzz = d } }

// WithSamples sets the numeric-integration resolution (default
// DefaultSamples; values below a small floor are raised to it).
func WithSamples(n int) Option { return func(e *Engine) { e.samples = n } }

// NewEngine constructs and validates an engine. The rule base must cover
// the complete cross product of input terms exactly once; both of the
// paper's rule bases (Tables 1 and 2) have this property, and requiring it
// catches transcription mistakes at startup rather than mid-simulation.
func NewEngine(name string, inputs []Variable, output Variable, rules []Rule, opts ...Option) (*Engine, error) {
	if name == "" {
		return nil, fmt.Errorf("fuzzy: engine has empty name")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("fuzzy: engine %q has no input variables", name)
	}
	for _, in := range inputs {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("fuzzy: engine %q: input: %w", name, err)
		}
	}
	if err := output.Validate(); err != nil {
		return nil, fmt.Errorf("fuzzy: engine %q: output: %w", name, err)
	}
	if err := validateRules(inputs, output, rules, true); err != nil {
		return nil, fmt.Errorf("fuzzy: engine %q: %w", name, err)
	}

	e := &Engine{
		name:    name,
		inputs:  append([]Variable(nil), inputs...),
		output:  output,
		rules:   append([]Rule(nil), rules...),
		and:     MinAND,
		defuzz:  Centroid{},
		samples: DefaultSamples,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.samples < minSamples {
		e.samples = minSamples
	}
	if e.and == nil {
		return nil, fmt.Errorf("fuzzy: engine %q: nil AND operator", name)
	}
	if e.defuzz == nil {
		return nil, fmt.Errorf("fuzzy: engine %q: nil defuzzifier", name)
	}
	off := make([]int, len(e.inputs))
	for i, in := range e.inputs {
		off[i] = e.nGrades
		e.nGrades += len(in.Terms)
	}
	e.ruleAt = make([]int, 0, len(e.rules)*len(e.inputs))
	for _, r := range e.rules {
		for vi, w := range r.When {
			e.ruleAt = append(e.ruleAt, off[vi]+w)
		}
	}
	if _, centroid := e.defuzz.(Centroid); centroid {
		e.centroid = newCentroidTable(e.output, e.samples)
	}
	return e, nil
}

// MustEngine is NewEngine that panics on error, for statically authored
// controllers.
func MustEngine(name string, inputs []Variable, output Variable, rules []Rule, opts ...Option) *Engine {
	e, err := NewEngine(name, inputs, output, rules, opts...)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// Name returns the engine's name.
func (e *Engine) Name() string { return e.name }

// Inputs returns a copy of the engine's input variables.
func (e *Engine) Inputs() []Variable { return append([]Variable(nil), e.inputs...) }

// Output returns the engine's output variable.
func (e *Engine) Output() Variable { return e.output }

// Rules returns a copy of the engine's rule base.
func (e *Engine) Rules() []Rule { return append([]Rule(nil), e.rules...) }

// Result carries the full trace of one inference, for diagnostics,
// explanation and tests.
type Result struct {
	// Crisp is the defuzzified output value.
	Crisp float64
	// RuleStrength is the activation strength of each rule, in rule order.
	RuleStrength []float64
	// TermStrength is the aggregated (max) activation of each output term.
	TermStrength []float64
	// BestTerm is the index of the most activated output term, or -1 if no
	// rule fired.
	BestTerm int
}

// Stack capacities of one inference's working buffers. Engines within
// them (both of the paper's controllers, by a wide margin) infer without
// allocating; larger ones fall back to heap buffers.
const (
	stackGrades = 32 // total input terms
	stackTerms  = 16 // output terms, plus the centroid table's sentinel
)

// Infer runs fuzzification, rule evaluation, aggregation and
// defuzzification for the given crisp inputs (one per input variable, in
// order; values are clamped to each variable's universe). With the
// default Centroid defuzzifier, and within the stack capacities above, it
// does not allocate.
func (e *Engine) Infer(inputs ...float64) (float64, error) {
	crisp, _, err := e.InferBest(inputs...)
	return crisp, err
}

// InferBest is Infer that also reports the index of the most activated
// output term (Result.BestTerm), without the rest of the trace. It
// allocates no more than Infer.
func (e *Engine) InferBest(inputs ...float64) (crisp float64, best int, err error) {
	var buf [stackTerms]float64
	terms := buf[:]
	if len(e.output.Terms)+1 > len(terms) {
		terms = make([]float64, len(e.output.Terms)+1)
	}
	return e.infer(inputs, nil, terms)
}

// InferDetail is Infer returning the full inference trace. Inputs are
// clamped to their universes (an out-of-range crisp value is simply the
// nearest edge, as the paper treats out-of-range measurements); NaN carries
// no such nearest value and is rejected.
func (e *Engine) InferDetail(inputs ...float64) (Result, error) {
	nt := len(e.output.Terms)
	ruleStrength := make([]float64, len(e.rules))
	termStrength := make([]float64, nt+1)
	crisp, best, err := e.infer(inputs, ruleStrength, termStrength)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Crisp:        crisp,
		RuleStrength: ruleStrength,
		TermStrength: termStrength[:nt:nt],
		BestTerm:     best,
	}, nil
}

// infer is the one inference core behind Infer, InferBest and
// InferDetail. terms receives the aggregated activation of each output
// term and must have room for one entry more: the sentinel term the
// centroid table pads its rows with, whose strength infer keeps at 0.
// rules, when non-nil, receives each rule's activation strength.
func (e *Engine) infer(inputs, rules, terms []float64) (float64, int, error) {
	if len(inputs) != len(e.inputs) {
		return 0, -1, fmt.Errorf("fuzzy: engine %q: got %d inputs, want %d", e.name, len(inputs), len(e.inputs))
	}

	// Fuzzify every input once into one flat grade vector.
	var gbuf [stackGrades]float64
	grades := gbuf[:]
	if e.nGrades > len(grades) {
		grades = make([]float64, e.nGrades)
	}
	n := 0
	for i, v := range e.inputs {
		x := inputs[i]
		if math.IsNaN(x) {
			return 0, -1, fmt.Errorf("fuzzy: engine %q: input %d (%s) is NaN", e.name, i, v.Name)
		}
		x = v.Clamp(x)
		for _, t := range v.Terms {
			grades[n] = t.MF.Grade(x)
			n++
		}
	}

	nt := len(e.output.Terms)
	clear(terms[:nt+1])
	nin := len(e.inputs)
	for ri, r := range e.rules {
		at := e.ruleAt[ri*nin : ri*nin+nin]
		s := grades[at[0]]
		for _, gi := range at[1:] {
			if s == 0 {
				break // conjunction cannot recover once any AND operand is 0
			}
			s = e.and(s, grades[gi])
		}
		if rules != nil {
			rules[ri] = s
		}
		if s > terms[r.Then] {
			terms[r.Then] = s
		}
	}

	best := -1
	bestS := 0.0
	for ti, s := range terms[:nt] {
		if s > bestS {
			bestS = s
			best = ti
		}
	}

	var crisp float64
	var err error
	if e.centroid != nil {
		crisp, err = e.centroid.defuzz(terms)
	} else {
		// The interface call may retain its argument, so it gets a copy
		// and the caller's buffer can stay on the stack.
		crisp, err = e.defuzz.Defuzz(e.output, slices.Clone(terms[:nt]), e.samples)
	}
	if err != nil {
		return 0, -1, fmt.Errorf("fuzzy: engine %q: %w", e.name, err)
	}
	return crisp, best, nil
}

// DescribeRule renders rule ri with variable and term names, e.g.
// "IF Sp is Sl AND An is St AND Sr is Me THEN Cv is Cv9".
func (e *Engine) DescribeRule(ri int) (string, error) {
	if ri < 0 || ri >= len(e.rules) {
		return "", fmt.Errorf("fuzzy: engine %q has no rule %d", e.name, ri)
	}
	r := e.rules[ri]
	var b strings.Builder
	b.WriteString("IF ")
	for vi, w := range r.When {
		if vi > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s is %s", e.inputs[vi].Name, e.inputs[vi].Terms[w].Name)
	}
	fmt.Fprintf(&b, " THEN %s is %s", e.output.Name, e.output.Terms[r.Then].Name)
	return b.String(), nil
}
