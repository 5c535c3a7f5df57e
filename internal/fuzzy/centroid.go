package fuzzy

import (
	"math"
	"slices"
)

// centroidTable is the Centroid defuzzifier compiled against one output
// variable and integration density: the same midpoint samples Centroid.Defuzz
// visits, with each sample's non-zero output-term grades pre-evaluated.
//
// A partition of the output universe overlaps only a few terms at any x
// (at most two for the paper's Cv and A/R variables), so each sample
// stores a fixed-width row of stride (term, grade) cells — stride being the
// deepest overlap over all samples — padded with a sentinel term whose
// strength is always 0. Each term also records the sample range [lo, hi)
// on which its grade is non-zero, so a centroid only visits the union
// support of the terms that fired.
//
// The result is bit-identical to Centroid.Defuzz: a skipped sample, and a
// padding cell, contribute an exact 0 to both integrals, and min and max
// are exact.
type centroidTable struct {
	x      []float64 // x[i] is the i-th midpoint sample
	stride int
	cells  []centroidCell // cells[i*stride : (i+1)*stride] is sample i's row
	lo, hi []int          // term t is non-zero exactly on samples [lo[t], hi[t])
}

type centroidCell struct {
	g uint64 // bits of the term's grade at the sample, > 0 except in padding
	t int    // output term index; len(out.Terms) in padding
}

// newCentroidTable compiles the table for out at the given integration
// density.
func newCentroidTable(out Variable, samples int) *centroidTable {
	nt := len(out.Terms)
	dx := (out.Max - out.Min) / float64(samples)
	c := &centroidTable{
		x:  make([]float64, samples),
		lo: make([]int, nt),
		hi: make([]int, nt),
	}
	for t := range c.lo {
		c.lo[t] = samples
	}
	dense := make([]float64, samples*nt)
	for i := range c.x {
		x := out.Min + (float64(i)+0.5)*dx
		c.x[i] = x
		depth := 0
		for t, term := range out.Terms {
			g := term.MF.Grade(x)
			// A grade that is not > 0 (0, negative or NaN) never raises
			// the aggregated max, in Centroid.Defuzz or here.
			if !(g > 0) {
				continue
			}
			dense[i*nt+t] = g
			depth++
			c.lo[t] = min(c.lo[t], i)
			c.hi[t] = i + 1
		}
		c.stride = max(c.stride, depth)
	}
	c.stride = max(c.stride, 1)

	c.cells = make([]centroidCell, samples*c.stride)
	for i := range c.x {
		row := c.cells[i*c.stride : (i+1)*c.stride]
		k := 0
		for t, g := range dense[i*nt : (i+1)*nt] {
			if g > 0 {
				row[k] = centroidCell{g: math.Float64bits(g), t: t}
				k++
			}
		}
		for ; k < len(row); k++ {
			row[k] = centroidCell{t: nt}
		}
	}
	return c
}

// span is a half-open sample range [lo, hi).
type span struct{ lo, hi int }

// defuzz is Centroid.Defuzz over the table. strength holds one activation
// per output term followed by the sentinel's, which must be 0.
func (c *centroidTable) defuzz(strength []float64) (float64, error) {
	// The supports of the fired terms, merged below into disjoint spans
	// visited in ascending order: the sample order of Centroid.Defuzz.
	var buf [stackTerms]span
	spans := buf[:0]
	for t, s := range strength[:len(c.lo)] {
		if s > 0 && c.lo[t] < c.hi[t] {
			spans = append(spans, span{c.lo[t], c.hi[t]})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })

	// Strengths and grades are non-negative and never NaN, and for such
	// floats the IEEE-754 bit patterns order like the values: the clipping
	// min and aggregating max run on the bits as branch-free integer
	// selects and return exactly the float min and max.
	var sbuf [stackTerms]uint64
	sb := sbuf[:]
	if len(strength) > len(sb) {
		sb = make([]uint64, len(strength))
	}
	for t, s := range strength {
		sb[t] = math.Float64bits(s)
	}

	var moment, area float64
	for k := 0; k < len(spans); {
		cur := spans[k]
		for k++; k < len(spans) && spans[k].lo <= cur.hi; k++ {
			cur.hi = max(cur.hi, spans[k].hi)
		}
		moment, area = c.integrate(sb, cur, moment, area)
	}
	if area == 0 {
		return 0, ErrNoRuleFired
	}
	return moment / area, nil
}

// integrate adds the centroid integrals' terms over the samples of sp to
// moment and area, in sample order; sb holds the bits of the term
// strengths.
func (c *centroidTable) integrate(sb []uint64, sp span, moment, area float64) (float64, float64) {
	xs := c.x[sp.lo:sp.hi]
	cells := c.cells[c.stride*sp.lo : c.stride*sp.hi]
	for i, x := range xs {
		var mu uint64
		for _, cell := range cells[c.stride*i : c.stride*(i+1)] {
			mu = max(mu, min(sb[cell.t], cell.g))
		}
		moment += x * math.Float64frombits(mu)
		area += math.Float64frombits(mu)
	}
	return moment, area
}
