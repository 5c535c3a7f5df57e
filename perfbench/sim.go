package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/core"
	"facsp/internal/experiment"
	"facsp/internal/hexgrid"
	"facsp/internal/rng"
	"facsp/internal/scenario"
	"facsp/internal/traffic"
)

// The simulation workloads repeat one fixed unit of work (a batch) until
// the run's time is up and report medians over batches. Every batch of a
// run has the same inputs, so every batch must produce the same digest.

const (
	simWorkers = 2
	fig10Reps  = 1 // replications per load point in one Fig. 10 batch
	cityLoad   = 8
	cityGroups = 16
	citySeeds  = 4 // seeds per city batch
	simSetups  = 5 // set-up repetitions; the median is reported
)

// resultDigest hashes every field of a simulation result, so two
// commits can be compared exactly.
func resultDigest(r cellsim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []int{r.Requests, r.Accepted, r.Blocked, r.HandoffAttempts, r.HandoffAccepted,
		r.Dropped, r.Completed, r.LeftNetwork, r.NetworkRequests, r.NetworkAccepted} {
		put(uint64(v))
	}
	for _, cl := range traffic.Classes() {
		put(uint64(r.AcceptedByClass[cl]))
		put(uint64(r.RequestsByClass[cl]))
	}
	for _, f := range []float64{r.CentreUtilization, r.BandwidthGranted, r.BandwidthRequested} {
		put(math.Float64bits(f))
	}
	return h.Sum64()
}

// combine hashes a list of digests in the given order.
func combine(ds []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}

// identitiesHold checks a result's accounting identities.
func identitiesHold(r cellsim.Result) bool {
	return r.Accepted+r.Blocked == r.Requests && r.HandoffAccepted+r.Dropped == r.HandoffAttempts
}

// batch is one unit of simulation work and what it produced.
type batch struct {
	wall     time.Duration
	cpu      float64 // process CPU seconds
	calls    int     // simulated network call requests
	handoffs int
	runs     int // simulation runs (results)
	broken   int // runs whose accounting identities failed
	digest   uint64
	units    []float64 // µs each unit of work took: the batch, or each run in it
}

// ctrlFactory builds one cell's controller, wrapped when traced.
type ctrlFactory func(cell hexgrid.Coord) (cac.Controller, error)

// perCell adapts a controller factory to cellsim.NewPerCell, timing
// construction and wrapping each controller when tr is non-nil.
// Construction errors are programming errors of the fixed workloads.
func perCell(build ctrlFactory, tr *tracer) *cellsim.PerCell {
	return cellsim.NewPerCell(func(cell hexgrid.Coord) cac.Controller {
		t0 := time.Now()
		c, err := build(cell)
		if err != nil {
			panic("perfbench: " + err.Error())
		}
		if tr != nil {
			if c, err = tr.controller(c, time.Since(t0)); err != nil {
				panic("perfbench: " + err.Error())
			}
		}
		return c
	})
}

// fig10Schemes are the two curves of the paper's Fig. 10, with exact
// inference.
var fig10Schemes = []struct {
	name  string
	build ctrlFactory
}{
	{"FACS-P", func(hexgrid.Coord) (cac.Controller, error) { return core.NewFACSP(core.DefaultPConfig()) }},
	{"FACS", func(hexgrid.Coord) (cac.Controller, error) { return core.NewFACS(core.DefaultConfig()) }},
}

// fig10Batch runs Fig. 10 once: FACS-P and FACS over the paper's load
// axis on the homogeneous 7-cell cluster.
func fig10Batch(seed uint64, tr *tracer) (batch, error) {
	var (
		mu      sync.Mutex
		digests []uint64
		b       batch
	)
	cfg := func(load int, s uint64) cellsim.Config {
		c := cellsim.DefaultConfig(load, s)
		if tr != nil {
			c.Mobility = tr.model(c.Mobility)
		}
		return c
	}
	metric := func(r cellsim.Result) float64 {
		mu.Lock()
		defer mu.Unlock()
		digests = append(digests, resultDigest(r))
		b.calls += r.NetworkRequests
		b.handoffs += r.HandoffAttempts
		b.runs++
		if !identitiesHold(r) {
			b.broken++
		}
		return r.AcceptedPct()
	}
	opts := experiment.Options{
		Loads:        experiment.DefaultLoads(),
		Replications: fig10Reps,
		Workers:      simWorkers,
		BaseSeed:     seed,
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var curves []uint64
	for _, sc := range fig10Schemes {
		factory := func() cellsim.Admitter { return perCell(sc.build, tr) }
		curve, err := experiment.RunCurve(sc.name, cfg, factory, metric, opts)
		if err != nil {
			return batch{}, err
		}
		for i, pt := range curve.Points {
			curves = append(curves, math.Float64bits(pt.Y), math.Float64bits(curve.CI95[i]))
		}
	}
	b.wall = time.Since(t0)
	b.cpu = cpuSeconds() - cpu0
	b.units = []float64{float64(b.wall) / 1e3}
	// Shards finish in any order; their digests are combined sorted.
	sort.Slice(digests, func(i, j int) bool { return digests[i] < digests[j] })
	b.digest = combine(append(digests, combine(curves)))
	return b, nil
}

// deadCell mirrors the scenario runner's controller for a zero-capacity
// cell: it refuses everything.
type deadCell struct{}

func (deadCell) Admit(cac.Request) cac.Decision {
	return cac.Decision{Accept: false, Score: -1, Outcome: "dead-cell"}
}
func (deadCell) Release(cac.Request) error { return fmt.Errorf("perfbench: release on a dead cell") }
func (deadCell) Occupancy() float64        { return 0 }
func (deadCell) Capacity() float64         { return 0 }

// city is the set-up of city-guard: the evaluation city, its simulation
// config, and the guard-channel admitter compiled over its topology.
type city struct {
	cfg   cellsim.Config
	adm   *cellsim.PerCell
	cells int
}

// guardControllers returns the scenario runner's guard-channel scheme over
// the city's capacity map: 20% of each cell reserved for handoffs.
func guardControllers(s *scenario.Scenario) ctrlFactory {
	return func(cell hexgrid.Coord) (cac.Controller, error) {
		capacity := s.CapacityAt(cell)
		if capacity <= 0 {
			return deadCell{}, nil
		}
		return baseline.NewGuardChannel(capacity, experiment.GuardBand/float64(core.CounterMax)*capacity)
	}
}

// setupCity generates the city, derives the simulation config and builds
// the admitter. RunSharded does not compile the same topology twice, and
// every run ends with all calls released, so one admitter serves every
// run of the workload.
func setupCity(seed uint64, tr *tracer) (*city, error) {
	s, err := scenario.GenerateCity(scenario.EvalCityParams())
	if err != nil {
		return nil, err
	}
	cfg, err := s.ConfigFor(cityLoad, seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		cfg.Mobility = tr.model(cfg.Mobility)
	}
	adm := perCell(guardControllers(s), tr)
	adm.CompileTopology(cfg.Topology)
	return &city{cfg: cfg, adm: adm, cells: cfg.Topology.Cells()}, nil
}

// citySeeds derives the run's city seeds from the workload seed.
func citySeedList(seed uint64) []uint64 {
	out := make([]uint64, citySeeds)
	for i := range out {
		out[i] = rng.Substream(seed, 3, uint64(i))
	}
	return out
}

// cityRun runs the city once at one seed.
func (c *city) run(seed uint64, workers int) (cellsim.Result, error) {
	cfg := c.cfg
	cfg.Seed = seed
	return cellsim.RunSharded(cfg, c.adm, cellsim.ShardOptions{Groups: cityGroups, Workers: workers})
}

// cityBatch runs the city once per seed.
func (c *city) batch(seeds []uint64) (batch, []uint64, error) {
	var b batch
	var digests []uint64
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for _, s := range seeds {
		t := time.Now()
		r, err := c.run(s, simWorkers)
		if err != nil {
			return batch{}, nil, err
		}
		b.units = append(b.units, float64(time.Since(t))/1e3)
		digests = append(digests, resultDigest(r))
		b.calls += r.NetworkRequests
		b.handoffs += r.HandoffAttempts
		b.runs++
		if !identitiesHold(r) {
			b.broken++
		}
	}
	b.wall = time.Since(t0)
	b.cpu = cpuSeconds() - cpu0
	b.digest = combine(digests)
	return b, digests, nil
}

// simRun is the measured part of a simulation workload.
type simRun struct {
	batches []batch
	rt      [2]rtSample
}

// repeat runs fn until budget is spent (at least twice).
func repeat(budget time.Duration, fn func() (batch, error)) (simRun, error) {
	var r simRun
	r.rt[0] = readRuntime()
	start := time.Now()
	for len(r.batches) < 2 || time.Since(start) < budget {
		b, err := fn()
		if err != nil {
			return simRun{}, err
		}
		r.batches = append(r.batches, b)
	}
	r.rt[1] = readRuntime()
	return r, nil
}

func (r simRun) rates() []float64 {
	out := make([]float64, len(r.batches))
	for i, b := range r.batches {
		out[i] = float64(b.calls) / b.wall.Seconds()
	}
	return out
}

func (r simRun) walls() []float64 {
	out := make([]float64, len(r.batches))
	for i, b := range r.batches {
		out[i] = float64(b.wall) / 1e3
	}
	return out
}

// units returns how long every unit of work took, in µs.
func (r simRun) units() []float64 {
	var out []float64
	for _, b := range r.batches {
		out = append(out, b.units...)
	}
	return out
}

func (r simRun) calls() int {
	n := 0
	for _, b := range r.batches {
		n += b.calls
	}
	return n
}

// checkBatches checks the accounting identities of every run and that
// every batch reproduced the first batch's digest.
func checkBatches(name string, r simRun, out *outcome) {
	runs, broken := 0, 0
	same := true
	for _, b := range r.batches {
		runs += b.runs
		broken += b.broken
		same = same && b.digest == r.batches[0].digest
	}
	out.attempted += runs
	out.failed += broken
	out.check(name+"-accounting-identities", broken == 0, fmt.Sprintf("%d of %d runs broken", broken, runs))
	out.check(name+"-deterministic", same, fmt.Sprintf("%d batches, digest %016x", len(r.batches), r.batches[0].digest))
}

// simE2E is the end-to-end metric set of a simulation workload.
func simE2E(r simRun, setupS float64) []metric {
	return []metric{
		{"throughput_per_s", median(r.rates()), "1/s"},
		{"setup_s", setupS, "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
}

func runPaperFig10(cfg config) (*outcome, error) {
	out := &outcome{}
	seed := rng.Substream(cfg.seed, 10)
	setupS, err := fig10Setup()
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return traceSim(out, "fig10", budget, func(tr *tracer) (func() (batch, error), error) {
			return func() (batch, error) { return fig10Batch(seed, tr) }, nil
		}, true)
	}
	r, err := repeat(budget, func() (batch, error) { return fig10Batch(seed, nil) })
	if err != nil {
		return nil, err
	}
	checkBatches("fig10", r, out)
	out.note("digest fig10 %016x (FACS-P and FACS, %d loads x %d replications, exact inference)",
		r.batches[0].digest, len(experiment.DefaultLoads()), fig10Reps)
	out.note("sim_calls_per_s %.0f (median of %d batches of %d calls); one Fig. 10 batch takes %.0f us (median)",
		median(r.rates()), len(r.batches), r.batches[0].calls, median(r.units()))
	out.e2e = simE2E(r, setupS)
	return out, nil
}

// fig10Setup times what a Fig. 10 sweep builds before its first event:
// each scheme's controller bank for the 7-cell cluster, compiled over
// its topology. The median of several builds is reported.
func fig10Setup() (float64, error) {
	var ts []float64
	for range 4 * simSetups {
		t0 := time.Now()
		for _, sc := range fig10Schemes {
			c := cellsim.DefaultConfig(experiment.DefaultLoads()[0], 1)
			if err := c.Validate(); err != nil {
				return 0, err
			}
			perCell(sc.build, nil).CompileTopology(hexgrid.DiskTopology(hexgrid.Coord{}, c.Rings))
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

func runCityGuard(cfg config) (*outcome, error) {
	out := &outcome{}
	seeds := citySeedList(cfg.seed)
	var setup []float64
	var c *city
	for range simSetups {
		t0 := time.Now()
		var err error
		if c, err = setupCity(cfg.seed, nil); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return traceSim(out, "city", budget, func(tr *tracer) (func() (batch, error), error) {
			tc := c
			if tr != nil {
				var err error
				if tc, err = setupCity(cfg.seed, tr); err != nil {
					return nil, err
				}
			}
			return func() (batch, error) {
				b, _, err := tc.batch(seeds)
				return b, err
			}, nil
		}, false)
	}
	var digests []uint64
	r, err := repeat(budget, func() (batch, error) {
		b, ds, err := c.batch(seeds)
		digests = ds
		return b, err
	})
	if err != nil {
		return nil, err
	}
	checkBatches("city", r, out)
	// The sharded engine's results must not depend on the worker count.
	one, err := c.run(seeds[0], 1)
	if err != nil {
		return nil, err
	}
	out.check("city-digest-1-vs-2-workers", resultDigest(one) == digests[0],
		fmt.Sprintf("seed %d: %016x at 1 worker, %016x at %d", seeds[0], resultDigest(one), digests[0], simWorkers))
	out.note("digest city %016x (eval city, %d cells, guard channel, load %d, %d groups, seeds %v)",
		r.batches[0].digest, c.cells, cityLoad, cityGroups, seeds)
	out.note("sim_calls_per_s %.0f (median of %d batches of %d calls); one city run takes %.0f us (median of %d)",
		median(r.rates()), len(r.batches), r.batches[0].calls, median(r.units()), len(r.units()))
	out.e2e = simE2E(r, median(setup))
	return out, nil
}
