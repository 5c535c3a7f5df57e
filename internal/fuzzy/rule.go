package fuzzy

import (
	"fmt"
	"strings"
)

// Rule is a single fuzzy control rule of the form
//
//	IF in[0] is Terms[When[0]] AND in[1] is Terms[When[1]] ... THEN out is Terms[Then]
//
// Antecedent terms are referenced by index into each input variable's term
// list, the consequent by index into the output variable's term list.
type Rule struct {
	// When holds one antecedent term index per engine input, in input order.
	When []int
	// Then is the consequent output term index.
	Then int
}

// String renders the rule with positional indices; Engine.DescribeRule
// renders it with variable and term names.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString("IF ")
	for i, w := range r.When {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "in%d=%d", i, w)
	}
	fmt.Fprintf(&b, " THEN out=%d", r.Then)
	return b.String()
}

// validateRules checks every rule against the engine's variables: arity,
// index ranges, and (optionally) that the rule base covers the full cross
// product of input terms exactly once, the way the paper's FRB1 (63 = 3x7x3)
// and FRB2 (27 = 3x3x3) do.
func validateRules(inputs []Variable, output Variable, rules []Rule, requireComplete bool) error {
	if len(rules) == 0 {
		return fmt.Errorf("rule base is empty")
	}
	for ri, r := range rules {
		if len(r.When) != len(inputs) {
			return fmt.Errorf("rule %d: has %d antecedents, engine has %d inputs", ri, len(r.When), len(inputs))
		}
		for vi, w := range r.When {
			if w < 0 || w >= len(inputs[vi].Terms) {
				return fmt.Errorf("rule %d: antecedent %d references term %d of variable %q (has %d terms)",
					ri, vi, w, inputs[vi].Name, len(inputs[vi].Terms))
			}
		}
		if r.Then < 0 || r.Then >= len(output.Terms) {
			return fmt.Errorf("rule %d: consequent references term %d of output %q (has %d terms)",
				ri, r.Then, output.Name, len(output.Terms))
		}
	}
	if !requireComplete {
		return nil
	}

	want := 1
	for _, in := range inputs {
		want *= len(in.Terms)
	}
	if len(rules) != want {
		return fmt.Errorf("rule base has %d rules, complete cross product needs %d", len(rules), want)
	}
	// Index each antecedent combination mixed-radix, the way RuleTable
	// enumerates them: seen[idx] is 1 + the rule that claimed it.
	seen := make([]int, want)
	for ri, r := range rules {
		idx := 0
		for vi, w := range r.When {
			idx = idx*len(inputs[vi].Terms) + w
		}
		if prev := seen[idx]; prev != 0 {
			return fmt.Errorf("rules %d and %d share the same antecedents %v", prev-1, ri, r.When)
		}
		seen[idx] = ri + 1
	}
	return nil
}

// RuleTable is a convenience builder for complete rule bases expressed the
// way the paper prints them: one consequent term name per row of the
// antecedent cross product, iterated rightmost-variable-fastest (the order
// of Table 1 and Table 2).
//
// inputs and output must be the variables the engine will be built with;
// consequents must contain exactly one output term name per combination.
func RuleTable(inputs []Variable, output Variable, consequents []string) ([]Rule, error) {
	want := 1
	for _, in := range inputs {
		want *= len(in.Terms)
	}
	if len(consequents) != want {
		return nil, fmt.Errorf("rule table has %d consequents, cross product of %d inputs needs %d",
			len(consequents), len(inputs), want)
	}

	rules := make([]Rule, 0, want)
	idx := make([]int, len(inputs))
	for row, name := range consequents {
		then := output.TermIndex(name)
		if then < 0 {
			return nil, fmt.Errorf("rule table row %d: output %q has no term %q", row, output.Name, name)
		}
		when := make([]int, len(idx))
		copy(when, idx)
		rules = append(rules, Rule{When: when, Then: then})

		// Advance the odometer, rightmost variable fastest.
		for vi := len(idx) - 1; vi >= 0; vi-- {
			idx[vi]++
			if idx[vi] < len(inputs[vi].Terms) {
				break
			}
			idx[vi] = 0
		}
	}
	return rules, nil
}
