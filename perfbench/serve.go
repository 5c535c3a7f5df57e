package main

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/loadgen"
	"facsp/internal/metrics"
	"facsp/internal/rng"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// serve-flash: an in-process daemon built the way `facs-server -cells 7`
// builds it by default (FACS-P, exact inference, 40 BU per cell), driven
// by an open-loop, pipelined generator over two loopback connections.

const (
	serveCells   = 7
	serveConns   = 2
	latencyLimit = 10 * time.Millisecond
	// lateShare is the share of latencyLimit the generator's own
	// lateness (p99) may use before a measurement is invalid.
	lateShare   = 0.5
	statusFrac  = 0.10
	handoffFrac = 0.20
	holdMean    = 50 * time.Millisecond
	// lead delays the first due time past the phase start, so the
	// generator is not late before it begins.
	lead = 2 * time.Millisecond
	// maxNap bounds one generator sleep, so releases that replies add
	// while it sleeps are sent at most this late.
	maxNap = 2 * time.Millisecond
	// quiesceTimeout bounds the wait for outstanding replies.
	quiesceTimeout = 20 * time.Second
)

type kind uint8

const (
	kAdmit kind = iota
	kStatus
	kRelease
	kCheck // status read of the output checks; not a measured request
)

// event is one request of a phase, drawn in advance from the seed.
type event struct {
	due     int64 // ns after the phase's zero
	cycle   int   // flash-crowd cycle of the phase the event falls in
	kind    kind
	conn    int
	cell    int
	class   traffic.Class
	id      uint64
	speed   float64
	angle   float64
	handoff bool
	hold    int64
	line    []byte // the encoded request
}

// flashSchedule draws a phase's arrivals: a Poisson stream thinned by the
// scenario library's flash-crowd profile (flat, an 8x spike, drain),
// time-scaled onto one cycle and repeated cycles times. The spike runs at
// rate requests/second.
func flashSchedule(rate float64, cycle time.Duration, cycles int, seed uint64) ([]*event, error) {
	profile, err := loadgen.ProfileByName("flash-crowd")
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	span := profile[len(profile)-1].T
	maxRate := profile.MaxRate()
	c := cycle.Seconds()
	end := c * float64(cycles)
	var plan []*event
	for t := src.Exp(1 / rate); t < end; t += src.Exp(1 / rate) {
		if src.Float64()*maxRate > profile.Rate(math.Mod(t, c)/c*span) {
			continue
		}
		ev, err := drawEvent(src, len(plan), int64(lead)+int64(t*1e9), int(t/c))
		if err != nil {
			return nil, err
		}
		plan = append(plan, ev)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("perfbench: empty schedule at %v/s over %d x %v", rate, cycles, cycle)
	}
	return plan, nil
}

// burstPlan draws n requests of the same mix, all due at once: the
// generator writes them as fast as the sockets take them.
func burstPlan(n int, seed uint64) ([]*event, error) {
	src := rng.New(seed)
	plan := make([]*event, 0, n)
	for i := range n {
		ev, err := drawEvent(src, i, int64(lead), 0)
		if err != nil {
			return nil, err
		}
		plan = append(plan, ev)
	}
	return plan, nil
}

// drawEvent draws the i-th request of a phase: a status read, or an
// admit over the default class mix with 20% priority handoffs, uniform
// speed and angle, and an exponential holding time.
func drawEvent(src *rng.Source, i int, due int64, cycle int) (*event, error) {
	ev := &event{
		due:   due,
		cycle: cycle,
		conn:  i % serveConns,
		cell:  src.Intn(serveCells),
		id:    uint64(i + 1),
	}
	if src.Bool(statusFrac) {
		ev.kind = kStatus
	} else {
		ev.kind = kAdmit
		ev.class = traffic.DefaultMix().Sample(src)
		ev.speed = src.Uniform(0, 120)
		ev.angle = src.Uniform(-180, 180)
		ev.handoff = src.Bool(handoffFrac)
		ev.hold = int64(src.Exp(float64(holdMean)))
	}
	var err error
	ev.line, err = encodeRequest(ev)
	return ev, err
}

func encodeRequest(ev *event) ([]byte, error) {
	req := wire.Request{V: wire.Version, ID: ev.id, Cell: ev.cell}
	switch ev.kind {
	case kAdmit:
		req.Op = wire.OpAdmit
		req.Class = ev.class.String()
		req.SpeedKmh = ev.speed
		req.AngleDeg = ev.angle
		req.Handoff = ev.handoff
		if ev.handoff {
			req.Priority = 1
		}
	case kRelease:
		req.Op = wire.OpRelease
		req.Class = ev.class.String()
	default:
		req.Op = wire.OpStatus
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// daemon is one in-process facs-server.
type daemon struct {
	srv     *bsd.Server
	served  chan error
	clients []net.Conn
	buildNS int64 // controller construction time
}

// startDaemon builds the daemon, serves it on loopback and dials the
// generator's connections. With a tracer, every controller and the
// listener are wrapped.
func startDaemon(tr *tracer) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	ctrls := make([]cac.Controller, serveCells)
	for i := range ctrls {
		t0 := time.Now()
		c, err := core.NewFACSP(core.DefaultPConfig())
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)
		d.buildNS += int64(build)
		ctrls[i] = c
		if tr != nil {
			if ctrls[i], err = tr.controller(c, build); err != nil {
				return nil, err
			}
		}
	}
	srv, err := bsd.New(bsd.Config{Cells: ctrls})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	d.srv = srv
	var l net.Listener = ln
	if tr != nil {
		l = tracedListener{Listener: ln, tr: tr}
	}
	go func() { d.served <- srv.Serve(l) }()
	for range serveConns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			_ = d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// close shuts the daemon down and waits until it has drained.
func (d *daemon) close() error {
	for _, c := range d.clients {
		_ = c.Close()
	}
	_ = d.srv.Close()
	<-d.served
	return nil
}

// sent is one request on the wire and what came back.
type sent struct {
	ev      *event
	sentAt  int64
	replyAt int64
	reply   []byte // captured reply line, when the phase captures
}

// session is the generator's side of one connection: requests are
// written when due and their replies matched in FIFO order by a reader.
type session struct {
	conn     net.Conn
	fifo     chan *sent     // in flight, in send order
	inflight sync.WaitGroup // requests written and not yet accounted
	all      []*sent        // every request sent, in order (writer-owned)
	done     chan struct{}
}

// releaseHeap orders pending releases by due time.
type releaseHeap []*event

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *releaseHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// phase is one open-loop run of a schedule against a daemon.
type phase struct {
	plan    []*event
	capture bool
	zero    int64

	sessions []*session

	mu       sync.Mutex
	releases releaseHeap
	ledger   [serveCells]float64 // BU of live grants, from the replies
	grants   map[uint64]*event   // live grants by connection id
	failures []string
	accepted int
	blocked  int
	dropped  int
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// arrival is one measured request: an admit or a status read.
type arrival struct {
	cycle  int
	status bool
	lat    time.Duration // reply minus due time
	late   time.Duration // send minus due time
}

// phaseResult is what one phase measured.
type phaseResult struct {
	arrivals  []arrival
	cycles    int
	wall      time.Duration // first due to last reply
	sent      int           // requests written, checks included
	failures  []string
	accepted  int
	blocked   int
	dropped   int
	backlogOK bool
	sessions  []*session
	zero      int64 // the tracer-clock time due offsets count from
}

// runPhase drives plan against d, then checks the daemon's per-cell
// occupancy against the generator's own ledger before and after
// draining every live grant.
func runPhase(d *daemon, plan []*event, capture bool) (*phaseResult, error) {
	p := &phase{plan: plan, capture: capture, grants: make(map[uint64]*event)}
	for _, c := range d.clients {
		// Every arrival, its release and the check reads can be in
		// flight at once.
		s := &session{conn: c, fifo: make(chan *sent, 2*len(plan)+4*serveCells), done: make(chan struct{})}
		p.sessions = append(p.sessions, s)
	}
	for i, s := range p.sessions {
		go p.read(i, s)
	}
	pc, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pc.close()
	// Start every phase from a collected heap, so that when the
	// collector runs during it, and the peak memory, do not depend on
	// the phases before.
	runtime.GC()
	p.zero = nowNS()
	if err := p.drive(pc); err != nil {
		return nil, err
	}
	if err := p.quiesce(); err != nil {
		return nil, err
	}
	lastReply := nowNS()
	p.checkLedger("before drain")
	p.drain()
	if err := p.quiesce(); err != nil {
		return nil, err
	}
	p.checkLedger("after drain")
	for _, s := range p.sessions {
		close(s.fifo)
		<-s.done
	}

	r := &phaseResult{sessions: p.sessions, backlogOK: true, zero: p.zero}
	var arrivals []*sent
	for _, s := range p.sessions {
		r.sent += len(s.all)
		for _, x := range s.all {
			if x.ev.kind == kAdmit || x.ev.kind == kStatus {
				arrivals = append(arrivals, x)
			}
		}
	}
	r.cycles = plan[len(plan)-1].cycle + 1
	for _, x := range arrivals {
		due := p.zero + x.ev.due
		lat := time.Duration(x.replyAt - due)
		r.arrivals = append(r.arrivals, arrival{
			cycle:  x.ev.cycle,
			status: x.ev.kind == kStatus,
			lat:    lat,
			late:   time.Duration(x.sentAt - due),
		})
		// A growing backlog shows as late replies at the end of the
		// schedule: every request of its last 5% must meet the limit.
		if x.ev.due >= plan[len(plan)*95/100].due && lat > latencyLimit {
			r.backlogOK = false
		}
	}
	r.wall = time.Duration(lastReply - (p.zero + plan[0].due))
	r.failures = p.failures
	r.accepted, r.blocked, r.dropped = p.accepted, p.blocked, p.dropped
	return r, nil
}

// drive writes every request when it is due, without waiting for
// earlier replies. All requests due at one wake-up go out in one write
// per connection.
func (p *phase) drive(pc *pacer) error {
	batch := make([][]byte, len(p.sessions))
	var due []*event
	i := 0
	for i < len(p.plan) {
		now := nowNS()
		due = due[:0]
		for i < len(p.plan) && p.zero+p.plan[i].due <= now {
			due = append(due, p.plan[i])
			i++
		}
		p.mu.Lock()
		for p.releases.Len() > 0 && p.zero+p.releases[0].due <= now {
			due = append(due, heap.Pop(&p.releases).(*event))
		}
		next := now + int64(maxNap)
		if p.releases.Len() > 0 {
			next = min(next, p.zero+p.releases[0].due)
		}
		p.mu.Unlock()
		if i < len(p.plan) {
			next = min(next, p.zero+p.plan[i].due)
		}
		if len(due) > 0 {
			p.send(due, batch)
			continue
		}
		if err := pc.sleepUntil(next); err != nil {
			return err
		}
	}
	return nil
}

// send writes events, grouped per connection, in one write each.
func (p *phase) send(evs []*event, batch [][]byte) {
	for i := range batch {
		batch[i] = batch[i][:0]
	}
	t := nowNS()
	for _, ev := range evs {
		s := p.sessions[ev.conn]
		x := &sent{ev: ev, sentAt: t}
		s.all = append(s.all, x)
		s.inflight.Add(1)
		s.fifo <- x
		batch[ev.conn] = append(batch[ev.conn], ev.line...)
	}
	for i, b := range batch {
		if len(b) == 0 {
			continue
		}
		if _, err := p.sessions[i].conn.Write(b); err != nil {
			p.fail("conn %d: write: %v", i, err)
		}
	}
}

// read matches replies to requests in FIFO order and keeps the ledger.
func (p *phase) read(idx int, s *session) {
	defer close(s.done)
	r := bufio.NewReader(s.conn)
	broken := false
	for x := range s.fifo {
		if broken {
			// The connection is gone: account the rest as lost.
			s.inflight.Done()
			continue
		}
		line, err := r.ReadSlice('\n')
		if err != nil {
			p.fail("conn %d: read: %v", idx, err)
			broken = true
			s.inflight.Done()
			continue
		}
		x.replyAt = nowNS()
		if p.capture || x.ev.kind == kCheck {
			x.reply = append([]byte(nil), line...)
		}
		var resp wire.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			p.fail("conn %d: bad reply %q: %v", idx, line, err)
		} else {
			p.account(x.ev, &resp)
		}
		s.inflight.Done()
	}
}

// account checks one reply against its request and applies it to the
// ledger. Admit replies carry an outcome; release and status replies
// never do.
func (p *phase) account(ev *event, r *wire.Response) {
	if !r.OK {
		p.fail("request %d (%v): error reply %q (code %q)", ev.id, ev.kind, r.Err, r.Code)
		return
	}
	if r.Cell != ev.cell || r.Capacity != core.CounterMax || r.Scheme != "FACS-P" {
		p.fail("request %d: reply for cell %d capacity %v scheme %q, want cell %d capacity %v FACS-P",
			ev.id, r.Cell, r.Capacity, r.Scheme, ev.cell, float64(core.CounterMax))
		return
	}
	if (ev.kind == kAdmit) != (r.Outcome != "") || (ev.kind != kAdmit && r.Accept) {
		p.fail("request %d: reply %+v does not match op %v", ev.id, *r, ev.kind)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.kind {
	case kAdmit:
		switch {
		case r.Accept:
			p.accepted++
			p.ledger[ev.cell] += ev.class.Bandwidth()
			rel := &event{due: ev.due + ev.hold, kind: kRelease, conn: ev.conn, cell: ev.cell, class: ev.class, id: ev.id,
				speed: ev.speed, angle: ev.angle}
			line, err := encodeRequest(rel)
			if err != nil {
				p.failures = append(p.failures, err.Error())
				return
			}
			rel.line = line
			p.grants[ev.id] = rel
			heap.Push(&p.releases, rel)
		case ev.handoff:
			p.dropped++
		default:
			p.blocked++
		}
	case kRelease:
		p.ledger[ev.cell] -= ev.class.Bandwidth()
		delete(p.grants, ev.id)
	}
}

// quiesce waits until every request written has its reply accounted.
func (p *phase) quiesce() error {
	done := make(chan struct{})
	go func() {
		for _, s := range p.sessions {
			s.inflight.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(quiesceTimeout):
		return fmt.Errorf("perfbench: replies still outstanding after %v", quiesceTimeout)
	}
}

// checkLedger reads every cell's status and compares its occupancy with
// the ledger of live grants. The generator is quiet, so nothing races.
func (p *phase) checkLedger(when string) {
	var evs []*event
	for cell := range serveCells {
		ev := &event{kind: kCheck, conn: 0, cell: cell}
		ev.line, _ = encodeRequest(ev)
		evs = append(evs, ev)
	}
	s := p.sessions[0]
	start := len(s.all)
	p.send(evs, make([][]byte, len(p.sessions)))
	if err := p.quiesce(); err != nil {
		p.fail("ledger check %s: %v", when, err)
		return
	}
	p.mu.Lock()
	ledger := p.ledger
	p.mu.Unlock()
	occ := p.statusOccupancy(s.all[start:])
	for cell := range serveCells {
		if occ[cell] != ledger[cell] {
			p.fail("ledger check %s: cell %d occupancy %v, ledger of live grants %v", when, cell, occ[cell], ledger[cell])
		}
	}
}

// statusOccupancy reads the occupancy of the check replies, which are
// always captured. A missing reply reads as NaN, which fails the check.
func (p *phase) statusOccupancy(xs []*sent) [serveCells]float64 {
	var occ [serveCells]float64
	for _, x := range xs {
		var r wire.Response
		if x.reply == nil || json.Unmarshal(x.reply, &r) != nil {
			occ[x.ev.cell] = math.NaN()
			continue
		}
		occ[x.ev.cell] = r.Occupancy
	}
	return occ
}

// drain releases every live grant at once.
func (p *phase) drain() {
	p.mu.Lock()
	evs := make([]*event, 0, len(p.grants))
	for _, rel := range p.grants {
		evs = append(evs, rel)
	}
	p.releases = nil
	p.mu.Unlock()
	if len(evs) > 0 {
		p.send(evs, make([][]byte, len(p.sessions)))
	}
}

// Workload sizes. The reference rate sits well below the knee of the
// 2-CPU machine the benchmark was sized on (about 38k/s peak); the
// ladder search starts at anchorRate, below the knee.
const (
	refRate     = 8000.0 // peak requests/second of the reference phase
	refCycle    = time.Second
	anchorRate  = 30000.0
	rungCycle   = 500 * time.Millisecond
	rungCycles  = 4
	gallop      = 4  // rungs per step while bracketing the knee
	maxProbes   = 12 // bounds the search's time on a starved machine
	setupReps   = 15
	warmCycles  = 1
	bursts      = 3     // capacity bursts; the quieter ones are reported
	burstSize   = 20000 // requests per burst
	retriesLate = 1     // re-measurements of a phase the generator ran late in
)

// ladder is the fixed list of offered peak rates max_rate_rps is read
// from: 5% apart, from 250/s up.
var ladder = func() []float64 {
	var out []float64
	for r := 250.0; r < 200000; r *= 1.05 {
		out = append(out, math.Round(r))
	}
	return out
}()

// lateLimitUS is the generator lateness (p99, in µs) beyond which a
// phase measured the generator more than the daemon.
var lateLimitUS = lateShare * float64(latencyLimit) / 1e3

// pooled returns the latencies (µs) of the phase's admits or status reads.
func (r *phaseResult) pooled(status bool) []float64 {
	var out []float64
	for _, a := range r.arrivals {
		if a.status == status {
			out = append(out, float64(a.lat)/1e3)
		}
	}
	return out
}

// perCycle returns, for every flash-crowd cycle, the q-quantile (µs) of
// its admit latencies, or of its generator lateness when late is set.
func (r *phaseResult) perCycle(q float64, late bool) []float64 {
	by := make([][]float64, r.cycles)
	for _, a := range r.arrivals {
		switch {
		case late:
			by[a.cycle] = append(by[a.cycle], float64(a.late)/1e3)
		case !a.status:
			by[a.cycle] = append(by[a.cycle], float64(a.lat)/1e3)
		}
	}
	out := make([]float64, 0, r.cycles)
	for _, xs := range by {
		if len(xs) > 0 {
			out = append(out, quantile(xs, q))
		}
	}
	return out
}

// quietQ is the quantile over cycles at which a phase's per-cycle
// figures are read. Time the machine gives to other work only ever adds
// latency, and it comes in bursts that spoil whole cycles; the quieter
// cycles measure the daemon.
const quietQ = 0.25

// admitQ is the quietQ-quantile over cycles of each cycle's admit
// q-quantile.
func (r *phaseResult) admitQ(q float64) float64 { return quantile(r.perCycle(q, false), quietQ) }

// late99 is the quietQ-quantile over cycles of each cycle's lateness p99.
func (r *phaseResult) late99() float64 { return quantile(r.perCycle(0.99, true), quietQ) }

// setupDaemon builds a daemon setupReps times, keeping the last, and
// returns the median set-up time and median controller build time. The
// kept daemon is traced with tr when tr is non-nil.
func setupDaemon(tr *tracer) (*daemon, float64, float64, error) {
	var setup, build []float64
	var d *daemon
	for i := range setupReps {
		if d != nil {
			_ = d.close()
		}
		var t *tracer
		if i == setupReps-1 {
			t = tr
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(t); err != nil {
			return nil, 0, 0, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		build = append(build, float64(d.buildNS)/1e9)
	}
	return d, median(setup), median(build), nil
}

// tally is the generator's count of admit outcomes.
type tally struct{ accepted, blocked, dropped int }

func (t *tally) add(r *phaseResult) {
	t.accepted += r.accepted
	t.blocked += r.blocked
	t.dropped += r.dropped
}

// phaseChecks turns a phase's failures into an output check.
func phaseChecks(name string, r *phaseResult, out *outcome) {
	out.attempted += r.sent
	out.failed += len(r.failures)
	detail := fmt.Sprintf("%d requests", r.sent)
	if len(r.failures) > 0 {
		detail = fmt.Sprintf("%d failures, first: %s", len(r.failures), r.failures[0])
	}
	out.check(name+"-replies-and-ledger", len(r.failures) == 0, detail)
}

// measure runs a phase and, while the generator ran too late in it,
// again: an invalid measurement is repeated, not reported. It reports
// whether the kept phase is valid.
func measure(name string, d *daemon, plan []*event, capture bool, out *outcome, tl *tally) (*phaseResult, bool, error) {
	for attempt := 0; ; attempt++ {
		r, err := runPhase(d, plan, capture)
		if err != nil {
			return nil, false, err
		}
		tl.add(r)
		phaseChecks(name, r, out)
		valid := r.late99() <= lateLimitUS
		if valid || attempt == retriesLate {
			return r, valid, nil
		}
		out.note("%s phase invalid: loadgen.late_p99_us %.0f > %.0f; measured again", name, r.late99(), lateLimitUS)
	}
}

// warmUp runs a short unmeasured phase, so the first measured phase
// does not pay for cold caches and idle CPUs.
func warmUp(d *daemon, seed uint64, out *outcome, tl *tally) error {
	plan, err := flashSchedule(refRate, refCycle, warmCycles, rng.Substream(seed, 9))
	if err != nil {
		return err
	}
	r, err := runPhase(d, plan, false)
	if err != nil {
		return err
	}
	tl.add(r)
	phaseChecks("warm-up", r, out)
	return nil
}

// probe is one ladder rung's run.
type probe struct {
	rate   float64
	p99    float64 // µs, median over the rung's cycles
	late99 float64
	ok     bool
	valid  bool
}

// runProbe runs one rung: the daemon meets the limit there when the
// median cycle's admit p99 is within it, no request failed, the backlog
// did not grow and the generator kept to its schedule.
func runProbe(d *daemon, i int, seed uint64, out *outcome, tl *tally) (probe, error) {
	plan, err := flashSchedule(ladder[i], rungCycle, rungCycles, rng.Substream(seed, 2, uint64(i)))
	if err != nil {
		return probe{}, err
	}
	r, valid, err := measure(fmt.Sprintf("rung-%.0f", ladder[i]), d, plan, false, out, tl)
	if err != nil {
		return probe{}, err
	}
	pr := probe{rate: ladder[i], p99: r.admitQ(0.99), late99: r.late99(), valid: valid}
	pr.ok = len(r.failures) == 0 && r.backlogOK && valid && pr.p99 <= float64(latencyLimit)/1e3
	return pr, nil
}

// searchLadder finds the highest rung that meets the limit: it gallops
// from the anchor rung until a pass and a fail bracket the knee, then
// bisects the bracket. It assumes a rung above a failing one fails too.
func searchLadder(d *daemon, seed uint64, out *outcome, tl *tally) (float64, []probe, error) {
	var probes []probe
	lo, hi := -1, len(ladder) // highest pass, lowest fail
	next := ladderIndex(anchorRate)
	for len(probes) < maxProbes {
		pr, err := runProbe(d, next, seed, out, tl)
		if err != nil {
			return 0, nil, err
		}
		probes = append(probes, pr)
		if pr.ok {
			lo = next
		} else {
			hi = next
		}
		switch {
		case lo < 0 && hi == 0, lo == len(ladder)-1:
			// Off either end of the ladder.
		case lo < 0:
			next = max(hi-gallop, 0)
			continue
		case hi == len(ladder):
			next = min(lo+gallop, len(ladder)-1)
			continue
		case hi-lo > 1:
			next = (lo + hi) / 2
			continue
		}
		break
	}
	if lo < 0 {
		// Reported as 0: max_rate_rps is not gated, and a run on a
		// starved machine must still report the metrics that are.
		return 0, probes, nil
	}
	return ladder[lo], probes, nil
}

func ladderIndex(rate float64) int {
	for i, r := range ladder {
		if r >= rate {
			return i
		}
	}
	return len(ladder) - 1
}

// serveTotals checks Server.Metrics() against the generator's tallies.
func serveTotals(d *daemon, tl tally, out *outcome) {
	snap := d.srv.Metrics().Snapshot(nil)
	var a, b, dr uint64
	for cell := range serveCells {
		for _, cl := range traffic.Classes() {
			a += snap.Counter(cell, metrics.Admits(cl))
			b += snap.Counter(cell, metrics.Blocks(cl))
			dr += snap.Counter(cell, metrics.Drops(cl))
		}
	}
	out.check("server-metrics-match-client",
		a == uint64(tl.accepted) && b == uint64(tl.blocked) && dr == uint64(tl.dropped),
		fmt.Sprintf("server admits/blocks/drops %d/%d/%d, client %d/%d/%d", a, b, dr, tl.accepted, tl.blocked, tl.dropped))
	out.check("no-sheds", d.srv.Shed() == 0, fmt.Sprintf("%d shed", d.srv.Shed()))
}

// refPlan is the reference phase's schedule: half the run's seconds of
// one-second flash-crowd cycles.
func refPlan(cfg config) ([]*event, error) {
	return flashSchedule(refRate, refCycle, max(cfg.seconds/2, 2), rng.Substream(cfg.seed, 1))
}

// measureCapacity sends bursts of requests that are all due at once and
// returns the completed requests per second of each burst.
func measureCapacity(d *daemon, seed uint64, out *outcome, tl *tally) ([]float64, error) {
	var rates []float64
	for i := range bursts {
		plan, err := burstPlan(burstSize, rng.Substream(seed, 4, uint64(i)))
		if err != nil {
			return nil, err
		}
		r, err := runPhase(d, plan, false)
		if err != nil {
			return nil, err
		}
		tl.add(r)
		phaseChecks(fmt.Sprintf("burst-%d", i), r, out)
		rates = append(rates, float64(len(plan))/r.wall.Seconds())
	}
	return rates, nil
}

func runServeFlash(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceServeFlash(cfg)
	}
	out := &outcome{}
	d, setupS, _, err := setupDaemon(nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var tl tally
	if err := warmUp(d, cfg.seed, out, &tl); err != nil {
		return nil, err
	}

	// Reference phase: latency at a fixed rate below the knee.
	plan, err := refPlan(cfg)
	if err != nil {
		return nil, err
	}
	ref, valid, err := measure("reference", d, plan, false, out, &tl)
	if err != nil {
		return nil, err
	}
	// Generator lateness invalidates the reference phase's latency
	// figures, which the report marks; it says nothing about the
	// program's outputs, so it is not a failed check.
	out.note("reference phase latency figures %s: loadgen.late_p99_us %.1f, limit %.0f",
		validity(valid), ref.late99(), lateLimitUS)
	capacity, err := measureCapacity(d, cfg.seed, out, &tl)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	admit, status := ref.pooled(false), ref.pooled(true)
	out.note("reference phase: %d flash-crowd cycles of %v peaking at %.0f/s; loadgen.late_p99_us %.1f, loadgen.sent %d",
		ref.cycles, refCycle, refRate, ref.late99(), ref.sent)
	out.note("admit_p50_us %.1f, admit_p99_us %.1f (quiet quartile of %d cycles; pooled %.1f / %.1f, n=%d)",
		ref.admitQ(0.5), ref.admitQ(0.99), ref.cycles, quantile(admit, 0.5), quantile(admit, 0.99), len(admit))
	out.note("status_p99_us %.1f (pooled, n=%d)", quantile(status, 0.99), len(status))
	out.note("cycle admit p50s %v", round1(ref.perCycle(0.5, false)))
	out.note("capacity_rps %.0f (quiet quartile of %d bursts of %d requests due at once: %v)",
		quantile(capacity, 1-quietQ), bursts, burstSize, round1(capacity))

	if cfg.ladder {
		maxRate, probes, err := searchLadder(d, cfg.seed, out, &tl)
		if err != nil {
			return nil, err
		}
		for _, pr := range probes {
			out.note("rung %7.0f/s: admit p99 %8.0f us, late p99 %6.0f us, ok=%v valid=%v", pr.rate, pr.p99, pr.late99, pr.ok, pr.valid)
		}
		out.note("max_rate_rps %.0f (0: no rung met the %v limit)", maxRate, latencyLimit)
	}
	serveTotals(d, tl, out)
	out.e2e = []metric{
		{"throughput_per_s", quantile(capacity, 1-quietQ), "1/s"},
		{"setup_s", setupS, "s"},
		{"peak_rss_mb", rss, "MB"},
	}
	return out, nil
}

// validity labels a measurement for the report.
func validity(valid bool) string {
	if valid {
		return "valid"
	}
	return "INVALID (the generator ran late)"
}

// round1 rounds figures for the report.
func round1(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(math.Round(x))
	}
	return out
}
