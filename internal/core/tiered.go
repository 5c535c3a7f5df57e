package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"facsp/internal/fuzzy"
	"facsp/internal/metrics"
)

// This file is the hotness-adaptive tiered decision-surface selector: a
// per-cell ladder of surface resolutions where cold cells share one coarse
// process-cached surface, warm cells a medium one, and hot cells get a fine
// grid or exact inference. Promotion and demotion are driven by the
// expdecay hotness rate (hotness.Tracker.Rate), sampled at an interval by
// the owning plane — never on the Admit path. Recompilation runs
// asynchronously in a background goroutine with a generation-checked atomic
// swap (the same pattern as the des handle generations): admits never block
// on a compile, a stale generation's result is discarded, and a scenario or
// config change bumps the generation.

// ValidateSurfaceResolution is the single validation rule for a per-axis
// decision-surface resolution, shared by Config, PConfig, SurfaceTier and
// the experiment options: 0 selects exact inference, anything else must be
// a grid of at least 2 ticks per axis.
func ValidateSurfaceResolution(resolution int) error {
	if resolution < 0 || resolution == 1 {
		return fmt.Errorf("core: surface resolution %d must be 0 (exact) or >= 2", resolution)
	}
	return nil
}

// SurfaceTier is one rung of the resolution ladder.
type SurfaceTier struct {
	// Resolution is the per-axis surface resolution of this tier; 0 means
	// exact Mamdani inference (only meaningful on the hottest tier, inside
	// the interpolation-error band).
	Resolution int
	// MinRate is the hotness rate (admission events per second on the
	// tracker's time axis) at which a cell enters this tier. The first
	// tier's MinRate must be 0 so every cell has a home.
	MinRate float64
}

// TierConfig parameterises a Tiered selector: the resolution ladder, the
// demotion hysteresis, and the hotness axis the rates are measured on.
type TierConfig struct {
	// Tiers is the ladder, coldest first. MinRates must be strictly
	// ascending from 0; non-zero resolutions must be strictly ascending.
	Tiers []SurfaceTier
	// Hysteresis widens the demotion band: a cell demotes out of tier k
	// only when its rate falls below Tiers[k].MinRate*Hysteresis, so a
	// constant rate sitting near a threshold cannot flap. Must be in
	// (0, 1]; 1 disables the band.
	Hysteresis float64
	// HalfLife is the expdecay half-life, in seconds of the rate axis,
	// that the sampled hotness rates are measured with. The selector does
	// not read clocks itself — this documents (and validates) the axis the
	// caller's tracker must use.
	HalfLife float64
	// Interval is the sampling period, in seconds, the owning plane drives
	// Sample at. The selector never samples on the Admit path.
	Interval float64
}

// DefaultTierConfig returns the daemon's default ladder: a coarse 9-tick
// shared surface for cold cells, the default 33-tick grid for warm cells,
// and a fine 65-tick grid once a cell sustains flash-crowd rates.
func DefaultTierConfig() TierConfig {
	return TierConfig{
		Tiers: []SurfaceTier{
			{Resolution: 9, MinRate: 0},
			{Resolution: DefaultSurfaceResolution, MinRate: 0.5},
			{Resolution: 65, MinRate: 8},
		},
		Hysteresis: 0.75,
		HalfLife:   30,
		Interval:   1,
	}
}

// ParseTiers parses a -surface-tiers flag value: the word "default", or an
// explicit ladder "res@minrate,res@minrate,..." such as "9@0,33@0.5,65@8"
// (resolution 0 = exact inference on the hottest tier). Hysteresis,
// half-life and interval keep their defaults.
func ParseTiers(spec string) (TierConfig, error) {
	cfg := DefaultTierConfig()
	if spec == "default" {
		return cfg, nil
	}
	cfg.Tiers = nil
	for _, part := range strings.Split(spec, ",") {
		res, rate, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return TierConfig{}, fmt.Errorf("core: tier %q must look like res@minrate", part)
		}
		r, err := strconv.Atoi(res)
		if err != nil {
			return TierConfig{}, fmt.Errorf("core: tier resolution %q: %v", res, err)
		}
		m, err := strconv.ParseFloat(rate, 64)
		if err != nil {
			return TierConfig{}, fmt.Errorf("core: tier min rate %q: %v", rate, err)
		}
		cfg.Tiers = append(cfg.Tiers, SurfaceTier{Resolution: r, MinRate: m})
	}
	if err := cfg.Validate(); err != nil {
		return TierConfig{}, err
	}
	return cfg, nil
}

// Validate checks the ladder and its sampling parameters.
func (c TierConfig) Validate() error {
	if len(c.Tiers) == 0 {
		return fmt.Errorf("core: tier config needs at least one tier")
	}
	for i, tr := range c.Tiers {
		if math.IsNaN(tr.MinRate) || math.IsInf(tr.MinRate, 0) || tr.MinRate < 0 {
			return fmt.Errorf("core: tier %d min rate %v must be finite and non-negative", i, tr.MinRate)
		}
		if i == 0 && tr.MinRate != 0 {
			return fmt.Errorf("core: first tier min rate %v must be 0 so every cell has a tier", tr.MinRate)
		}
		if i > 0 && tr.MinRate <= c.Tiers[i-1].MinRate {
			return fmt.Errorf("core: tier min rates must be strictly ascending (tier %d: %v after %v)",
				i, tr.MinRate, c.Tiers[i-1].MinRate)
		}
		if err := ValidateSurfaceResolution(tr.Resolution); err != nil {
			return err
		}
		if tr.Resolution == 0 && i != len(c.Tiers)-1 {
			return fmt.Errorf("core: exact inference (resolution 0) is only valid on the hottest tier, not tier %d", i)
		}
		if i > 0 && tr.Resolution != 0 && tr.Resolution <= c.Tiers[i-1].Resolution {
			return fmt.Errorf("core: tier resolutions must be strictly ascending (tier %d: %d after %d)",
				i, tr.Resolution, c.Tiers[i-1].Resolution)
		}
	}
	if !(c.Hysteresis > 0 && c.Hysteresis <= 1) {
		return fmt.Errorf("core: hysteresis %v must be in (0, 1]", c.Hysteresis)
	}
	if !(c.HalfLife > 0) || math.IsInf(c.HalfLife, 1) {
		return fmt.Errorf("core: hotness half-life %v must be positive and finite", c.HalfLife)
	}
	if !(c.Interval > 0) || math.IsInf(c.Interval, 1) {
		return fmt.Errorf("core: sample interval %v must be positive and finite", c.Interval)
	}
	return nil
}

// TierFor returns the static tier assignment for a hotness rate: the
// hottest tier whose MinRate the rate reaches, with no hysteresis. This is
// the pure assignment function the simulation plane uses (per-cell tiers
// from the sim-time hotness axis); the live selector applies hysteresis on
// top via next.
func (c TierConfig) TierFor(rate float64) int { return c.next(0, rate) }

// next computes the tier a cell at tier cur should move to at the given
// rate. Promotion triggers at MinRate; demotion only below
// MinRate*Hysteresis, and never in the same step as a promotion — so a
// constant rate has a fixed point after at most one transition and cannot
// flap between adjacent tiers.
func (c TierConfig) next(cur int, rate float64) int {
	target := cur
	for target+1 < len(c.Tiers) && rate >= c.Tiers[target+1].MinRate {
		target++
	}
	if target == cur {
		hyst := c.Hysteresis
		if !(hyst > 0 && hyst <= 1) {
			hyst = 1
		}
		for target > 0 && rate < c.Tiers[target].MinRate*hyst {
			target--
		}
	}
	return target
}

// Process-wide counters of the tiered selectors, exposed as scalar families
// in the /metrics exposition (see metrics.RegisterScalar).
var (
	tierRecompiles    atomic.Uint64 // surface recompilations completed by background recompilers
	tierStaleDiscards atomic.Uint64 // recompile requests/results discarded by the generation check
	tierPromotions    atomic.Uint64 // cells moved to a hotter tier
	tierDemotions     atomic.Uint64 // cells moved to a colder tier
)

func init() {
	metrics.RegisterScalar("facs_surface_recompiles_total",
		"Tiered decision-surface recompilations completed by the background recompiler.",
		tierRecompiles.Load)
	metrics.RegisterScalar("facs_surface_recompiles_stale_total",
		"Tiered recompilations discarded because the generation changed mid-flight.",
		tierStaleDiscards.Load)
	metrics.RegisterScalar("facs_surface_tier_promotions_total",
		"Cells promoted to a hotter decision-surface tier.",
		tierPromotions.Load)
	metrics.RegisterScalar("facs_surface_tier_demotions_total",
		"Cells demoted to a colder decision-surface tier.",
		tierDemotions.Load)
}

// TierCounters reports the process-wide tiered-selector counters since
// process start: completed recompilations, generation-stale discards, and
// tier promotions/demotions.
func TierCounters() (recompiles, stale, promotions, demotions uint64) {
	return tierRecompiles.Load(), tierStaleDiscards.Load(), tierPromotions.Load(), tierDemotions.Load()
}

// SurfaceProvider supplies the decision surfaces a controller should answer
// with right now; (nil, nil) selects exact inference. Implementations must
// be safe for concurrent use and allocation-free — Surfaces sits on the
// Admit hot path.
type SurfaceProvider interface {
	Surfaces() (s1, s2 *fuzzy.Surface)
}

// tierSurf is one cell's installed selection: the tier index, the
// generation it was compiled under, and the (shared, immutable) surfaces.
// Installed atomically as a unit so readers can never see a torn pair.
type tierSurf struct {
	tier   int
	gen    uint64
	s1, s2 *fuzzy.Surface // nil on an exact tier
}

// tierCell is one cell's slot in a Tiered selector. It implements
// SurfaceProvider with a single atomic pointer load.
type tierCell struct {
	cur atomic.Pointer[tierSurf]
	// pending packs the (generation, tier) pair currently queued for this
	// cell (-1 none), so the interval sampler does not flood the
	// recompiler with duplicates of an in-flight request.
	pending atomic.Int64
}

// Surfaces implements SurfaceProvider.
func (c *tierCell) Surfaces() (*fuzzy.Surface, *fuzzy.Surface) {
	ts := c.cur.Load()
	return ts.s1, ts.s2
}

// tierCompileReq asks the recompiler to move one cell to a tier, valid only
// while the generation matches.
type tierCompileReq struct {
	cell, tier int
	gen        uint64
}

func packPending(gen uint64, tier int) int64 { return int64(gen)<<8 | int64(tier) }

// Tiered is the per-cell tiered decision-surface selector. Construct one
// per admission plane (NewTiered), hand each controller its cell's
// SurfaceProvider (Cell), and feed it hotness rates at an interval
// (Sample). All methods are safe for concurrent use; Tier, Cell and the
// providers' Surfaces are allocation-free.
type Tiered struct {
	cfg     TierConfig
	compile func(resolution int) (s1, s2 *fuzzy.Surface, err error)

	gen   atomic.Uint64
	cells []tierCell

	reqs      chan tierCompileReq
	quit      chan struct{}
	done      sync.WaitGroup
	closeOnce sync.Once
}

// NewTiered builds a selector for the given number of cells with every cell
// on the coldest tier (compiled synchronously, shared process-wide through
// the surface cache) and starts the background recompiler. Close releases
// it. The surfaces are compiled from the paper's FLC1/FLC2 at the default
// integration density, matching controllers built from DefaultConfig /
// DefaultPConfig.
func NewTiered(cells int, cfg TierConfig) (*Tiered, error) {
	flc1, flc2, err := enginePair(fuzzy.DefaultSamples, nil)
	if err != nil {
		return nil, err
	}
	return newTieredCompile(cells, cfg, func(resolution int) (*fuzzy.Surface, *fuzzy.Surface, error) {
		if resolution == 0 {
			return nil, nil, nil // exact tier: controllers fall back to their own engines
		}
		return surfacePair(flc1, flc2, resolution, fuzzy.DefaultSamples, nil)
	})
}

// newTieredCompile is NewTiered with an injectable compiler, so tests can
// count and gate compilations.
func newTieredCompile(cells int, cfg TierConfig, compile func(int) (*fuzzy.Surface, *fuzzy.Surface, error)) (*Tiered, error) {
	if cells < 1 {
		return nil, fmt.Errorf("core: tiered selector needs at least one cell, got %d", cells)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tiered{
		cfg:     cfg,
		compile: compile,
		cells:   make([]tierCell, cells),
		reqs:    make(chan tierCompileReq, cells+16),
		quit:    make(chan struct{}),
	}
	t.gen.Store(1)
	s1, s2, err := compile(cfg.Tiers[0].Resolution)
	if err != nil {
		return nil, fmt.Errorf("core: compiling base tier: %w", err)
	}
	base := &tierSurf{tier: 0, gen: 1, s1: s1, s2: s2}
	for i := range t.cells {
		t.cells[i].cur.Store(base)
		t.cells[i].pending.Store(-1)
	}
	t.done.Add(1)
	go t.recompiler()
	return t, nil
}

// Close stops the background recompiler. Providers stay readable (they keep
// answering with the last installed surfaces); Sample becomes a no-op queue
// write that nobody drains.
func (t *Tiered) Close() {
	t.closeOnce.Do(func() { close(t.quit) })
	t.done.Wait()
}

// NumCells returns the number of cells the selector covers.
func (t *Tiered) NumCells() int { return len(t.cells) }

// NumTiers returns the number of rungs in the ladder.
func (t *Tiered) NumTiers() int { return len(t.cfg.Tiers) }

// Config returns the selector's tier configuration.
func (t *Tiered) Config() TierConfig { return t.cfg }

// Tier returns the cell's currently installed tier index. Allocation-free.
func (t *Tiered) Tier(cell int) int { return t.cells[cell].cur.Load().tier }

// Cell returns the cell's SurfaceProvider, to be placed in a controller's
// Config.Surfaces / PConfig.Surfaces. The provider is a single atomic
// pointer load per call and never blocks on a recompile.
func (t *Tiered) Cell(cell int) SurfaceProvider { return &t.cells[cell] }

// TierCounts counts the cells currently installed on each tier into buf
// (grown if needed) — the tier-occupancy histogram served on /metrics.
func (t *Tiered) TierCounts(buf []int) []int {
	if cap(buf) < len(t.cfg.Tiers) {
		buf = make([]int, len(t.cfg.Tiers))
	}
	buf = buf[:len(t.cfg.Tiers)]
	for i := range buf {
		buf[i] = 0
	}
	for i := range t.cells {
		buf[t.cells[i].cur.Load().tier]++
	}
	return buf
}

// Bump invalidates every installed surface by advancing the generation —
// the hook a scenario or config change calls. In-flight recompiles of the
// old generation are discarded; the next Sample per cell schedules a fresh
// compile at the new generation.
func (t *Tiered) Bump() { t.gen.Add(1) }

// Sample feeds one cell's current hotness rate to the selector. It is the
// interval-driven entry point — call it from a sampling loop at
// TierConfig.Interval, never from the Admit path. If the rate crosses a
// tier boundary (with hysteresis) or the installed surfaces are from a
// stale generation, an asynchronous recompile is scheduled; Sample itself
// never compiles and never blocks.
func (t *Tiered) Sample(cell int, rate float64) {
	c := &t.cells[cell]
	cur := c.cur.Load()
	gen := t.gen.Load()
	target := t.cfg.next(cur.tier, rate)
	if target == cur.tier && cur.gen == gen {
		return
	}
	pack := packPending(gen, target)
	if c.pending.Load() == pack {
		return // already queued or compiling
	}
	select {
	case t.reqs <- tierCompileReq{cell: cell, tier: target, gen: gen}:
		c.pending.Store(pack)
	default:
		// Queue full: drop; the next interval sample retries.
	}
}

// Preset synchronously compiles and installs a tier for a cell at the
// current generation — the static-assignment path the simulation plane and
// benchmarks use (experiment.AssignTiers), bypassing the sampler.
func (t *Tiered) Preset(cell, tier int) error {
	if tier < 0 || tier >= len(t.cfg.Tiers) {
		return fmt.Errorf("core: tier %d out of range [0, %d)", tier, len(t.cfg.Tiers))
	}
	t.handle(tierCompileReq{cell: cell, tier: tier, gen: t.gen.Load()})
	return nil
}

func (t *Tiered) recompiler() {
	defer t.done.Done()
	for {
		select {
		case <-t.quit:
			return
		case req := <-t.reqs:
			t.handle(req)
		}
	}
}

// handle compiles one request and installs it with a generation-checked
// atomic swap: a result whose generation is no longer current — or older
// than what another install already placed — is discarded, never installed.
func (t *Tiered) handle(req tierCompileReq) {
	c := &t.cells[req.cell]
	defer c.pending.CompareAndSwap(packPending(req.gen, req.tier), -1)
	if req.gen != t.gen.Load() {
		tierStaleDiscards.Add(1)
		return
	}
	s1, s2, err := t.compile(t.cfg.Tiers[req.tier].Resolution)
	if err != nil {
		// Validated ladders cannot fail to compile; drop and let the next
		// sample retry rather than wedge the recompiler.
		return
	}
	tierRecompiles.Add(1)
	ns := &tierSurf{tier: req.tier, gen: req.gen, s1: s1, s2: s2}
	for {
		cur := c.cur.Load()
		if req.gen < cur.gen || req.gen != t.gen.Load() {
			tierStaleDiscards.Add(1)
			return
		}
		if c.cur.CompareAndSwap(cur, ns) {
			if req.tier > cur.tier {
				tierPromotions.Add(1)
			} else if req.tier < cur.tier {
				tierDemotions.Add(1)
			}
			return
		}
	}
}
