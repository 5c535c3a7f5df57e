package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"facsp/internal/fuzzy"
	"facsp/internal/metrics"
)

// DefaultSurfaceResolution is the per-axis base resolution used when a
// decision-surface cache is enabled without an explicit resolution (see
// Config.SurfaceResolution and PConfig.SurfaceResolution).
const DefaultSurfaceResolution = fuzzy.DefaultSurfaceResolution

// surfaceKey identifies one shareable compiled stage of the paper's
// controllers: an FLC engine (resolution 0) or its decision surface at a
// positive resolution. FLC1 and FLC2 are static rule bases, so two
// controllers with the same resolution, integration density and
// defuzzifier value compile bit-identical engines and surfaces; compiling
// once per process and sharing the immutable result is what keeps
// per-cell controller construction cheap in the experiment runner
// (thousands of controllers per sweep).
type surfaceKey struct {
	engine     string
	resolution int
	samples    int
	// defuzz is the configured defuzzifier value (nil = default Centroid).
	// Only comparable defuzzifiers are cached — value equality must imply
	// behavioural equality, which holds for the stateless defuzzifiers in
	// internal/fuzzy.
	defuzz fuzzy.Defuzzifier
}

var surfaceCache = struct {
	mu sync.Mutex
	m  map[surfaceKey]*surfaceEntry
}{m: make(map[surfaceKey]*surfaceEntry)}

// surfaceCacheHits / surfaceCacheMisses count compileSurface lookups that
// found (or had to create) a shared surface entry; a miss is one real
// surface compilation per process. Engine lookups are not counted.
// Exposed as process-wide scalar families in the /metrics exposition.
var surfaceCacheHits, surfaceCacheMisses atomic.Uint64

func init() {
	metrics.RegisterScalar("facs_surface_cache_hits_total",
		"Decision-surface compilations served from the shared process-wide cache.",
		surfaceCacheHits.Load)
	metrics.RegisterScalar("facs_surface_cache_misses_total",
		"Decision-surface compilations that could not be shared (first use per key, or uncacheable defuzzifier).",
		surfaceCacheMisses.Load)
}

// SurfaceCacheCounters reports the shared surface cache's hit and miss
// counts since process start.
func SurfaceCacheCounters() (hits, misses uint64) {
	return surfaceCacheHits.Load(), surfaceCacheMisses.Load()
}

// surfaceEntry is one cached stage: the engine when the key's resolution
// is 0, the surface otherwise.
type surfaceEntry struct {
	once sync.Once
	e    *fuzzy.Engine
	s    *fuzzy.Surface
	err  error
}

// sharedEntry returns the cache entry for key, reporting whether it
// already existed, or nil when defuzz is of a non-comparable type and
// cannot be keyed (the caller then compiles privately).
func sharedEntry(key surfaceKey) (ent *surfaceEntry, hit bool) {
	if key.defuzz != nil && !reflect.TypeOf(key.defuzz).Comparable() {
		return nil, false
	}
	surfaceCache.mu.Lock()
	defer surfaceCache.mu.Unlock()
	if ent, hit = surfaceCache.m[key]; !hit {
		ent = &surfaceEntry{}
		surfaceCache.m[key] = ent
	}
	return ent, hit
}

// compileSurface compiles engine's decision surface at the given per-axis
// resolution. Compilations are shared through the process-wide cache keyed
// by defuzzifier value; defuzzifiers of non-comparable types cannot be
// keyed and compile privately.
func compileSurface(e *fuzzy.Engine, resolution, samples int, defuzz fuzzy.Defuzzifier) (*fuzzy.Surface, error) {
	ent, hit := sharedEntry(surfaceKey{engine: e.Name(), resolution: resolution, samples: samples, defuzz: defuzz})
	if hit {
		surfaceCacheHits.Add(1)
	} else {
		surfaceCacheMisses.Add(1)
	}
	if ent == nil {
		return fuzzy.NewSurface(e, resolution)
	}
	ent.once.Do(func() { ent.s, ent.err = fuzzy.NewSurface(e, resolution) })
	return ent.s, ent.err
}

// flcEngine returns the paper's FLC1 or FLC2 (by engine name) built with
// the given integration density and defuzzifier (nil = Centroid), shared
// through the same cache as the surfaces under resolution 0.
func flcEngine(name string, samples int, defuzz fuzzy.Defuzzifier) (*fuzzy.Engine, error) {
	build := func() (*fuzzy.Engine, error) {
		opts := []fuzzy.Option{fuzzy.WithSamples(samples)}
		if defuzz != nil {
			opts = append(opts, fuzzy.WithDefuzzifier(defuzz))
		}
		if name == "FLC1" {
			return NewFLC1(opts...)
		}
		return NewFLC2(opts...)
	}
	ent, _ := sharedEntry(surfaceKey{engine: name, samples: samples, defuzz: defuzz})
	if ent == nil {
		return build()
	}
	ent.once.Do(func() { ent.e, ent.err = build() })
	return ent.e, ent.err
}

// enginePair returns the FLC1/FLC2 engines of a controller configured with
// the given integration density (non-positive: the default) and
// defuzzifier. Engines are immutable and safe for concurrent use, so
// every controller of one configuration shares the one pair.
func enginePair(samples int, defuzz fuzzy.Defuzzifier) (flc1, flc2 *fuzzy.Engine, err error) {
	if samples <= 0 {
		samples = fuzzy.DefaultSamples
	}
	if flc1, err = flcEngine("FLC1", samples, defuzz); err != nil {
		return nil, nil, fmt.Errorf("core: building FLC1: %w", err)
	}
	if flc2, err = flcEngine("FLC2", samples, defuzz); err != nil {
		return nil, nil, fmt.Errorf("core: building FLC2: %w", err)
	}
	return flc1, flc2, nil
}

// inferScore runs the FLC1 -> FLC2 pipeline for one request, exact or
// surface-backed per stage, and returns the correction value, the crisp A/R
// score, and the soft outcome label. The exact path labels the outcome with
// the most-activated rule consequent (the inference trace); the surface
// path, which has no trace, labels it with the output term dominant at the
// interpolated score — identical wherever the score is unambiguous.
func inferScore(flc1, flc2 *fuzzy.Engine, surf1, surf2 *fuzzy.Surface,
	speed, angle, bandwidth, cs float64) (cv, score float64, outcome string, err error) {

	if surf1 != nil {
		cv, err = surf1.Infer(speed, angle, bandwidth)
	} else {
		cv, err = flc1.Infer(speed, angle, bandwidth)
	}
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: FLC1: %w", err)
	}

	if surf2 != nil {
		score, err = surf2.Infer(cv, bandwidth, cs)
		if err != nil {
			return 0, 0, "", fmt.Errorf("core: FLC2: %w", err)
		}
		out := surf2.Output()
		if ti := out.DominantTerm(score); ti >= 0 {
			outcome = out.Terms[ti].Name
		}
		return cv, score, outcome, nil
	}
	score, best, err := flc2.InferBest(cv, bandwidth, cs)
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: FLC2: %w", err)
	}
	return cv, score, flc2.Output().Terms[best].Name, nil
}

// surfacePair compiles the FLC1/FLC2 surfaces for a controller whose config
// requested SurfaceResolution > 0.
func surfacePair(flc1, flc2 *fuzzy.Engine, resolution, samples int, defuzz fuzzy.Defuzzifier) (s1, s2 *fuzzy.Surface, err error) {
	if samples <= 0 {
		samples = fuzzy.DefaultSamples
	}
	if s1, err = compileSurface(flc1, resolution, samples, defuzz); err != nil {
		return nil, nil, err
	}
	if s2, err = compileSurface(flc2, resolution, samples, defuzz); err != nil {
		return nil, nil, err
	}
	return s1, s2, nil
}
