package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"facsp/internal/cac"
	"facsp/internal/mobility"
	"facsp/internal/rng"
)

// The tracing layer wraps the interfaces the program already accepts —
// net.Listener/net.Conn, cac.Controller and mobility.Model — and records
// what crosses them. Nothing inside the program is instrumented, and an
// untraced run uses no wrapper at all.

// epoch is the zero of every nanosecond timestamp the tracer records.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// coreOp tells an admit span from a release span.
type coreOp uint8

const (
	opAdmit coreOp = iota
	opRelease
)

// coreSpan is one timed controller call. Speed and Angle are the
// request's own random floats: they round-trip exactly through the wire
// protocol's JSON, so a span can be linked back to its wire request.
type coreSpan struct {
	op           coreOp
	speed, angle float64
	start, end   int64
}

// ctrlStats accumulates one controller's calls. A controller is only
// ever driven by one goroutine at a time (a bsd cell worker, or the
// simulation worker owning its cell), so the counters need no atomics;
// they are read once every call has returned.
type ctrlStats struct {
	admits, releases   int64
	admitNS, releaseNS int64
	admitHist          hist
	spans              []coreSpan // kept only when the tracer keeps spans
}

// tracedCtrl times every Admit and Release of the controller it wraps.
// It forwards cac.Named, so replies and reports carry the wrapped
// scheme's name exactly as an unwrapped controller would.
type tracedCtrl struct {
	inner     cac.Controller
	st        *ctrlStats
	keepSpans bool
}

var (
	_ cac.Controller = (*tracedCtrl)(nil)
	_ cac.Named      = (*tracedCtrl)(nil)
)

func (c *tracedCtrl) Admit(req cac.Request) cac.Decision {
	t0 := nowNS()
	d := c.inner.Admit(req)
	t1 := nowNS()
	c.st.admits++
	c.st.admitNS += t1 - t0
	c.st.admitHist.add(t1 - t0)
	if c.keepSpans {
		c.st.spans = append(c.st.spans, coreSpan{opAdmit, req.Speed, req.Angle, t0, t1})
	}
	return d
}

func (c *tracedCtrl) Release(req cac.Request) error {
	t0 := nowNS()
	err := c.inner.Release(req)
	t1 := nowNS()
	c.st.releases++
	c.st.releaseNS += t1 - t0
	if c.keepSpans {
		c.st.spans = append(c.st.spans, coreSpan{opRelease, req.Speed, req.Angle, t0, t1})
	}
	return err
}

func (c *tracedCtrl) Occupancy() float64 { return c.inner.Occupancy() }
func (c *tracedCtrl) Capacity() float64  { return c.inner.Capacity() }
func (c *tracedCtrl) SchemeName() string { return cac.Name(c.inner) }

// moverStats accumulates one mobile's movement calls.
type moverStats struct {
	advances, advanceNS, newNS int64
}

// tracedMover times every Advance of the mover it wraps.
type tracedMover struct {
	inner mobility.Mover
	st    moverStats
}

func (m *tracedMover) State() mobility.State { return m.inner.State() }

func (m *tracedMover) Advance(dt float64) {
	t0 := nowNS()
	m.inner.Advance(dt)
	m.st.advances++
	m.st.advanceNS += nowNS() - t0
}

// tracedModel wraps a mobility model so that every mover it creates is
// timed. It is shared by the workers of one run, so the mover registry
// is locked; the per-call counters live in each mover.
type tracedModel struct {
	inner mobility.Model
	tr    *tracer
}

func (m tracedModel) NewMover(init mobility.State, src *rng.Source) mobility.Mover {
	t0 := nowNS()
	mv := &tracedMover{inner: m.inner.NewMover(init, src)}
	mv.st.newNS = nowNS() - t0
	m.tr.mu.Lock()
	m.tr.movers = append(m.tr.movers, mv)
	m.tr.mu.Unlock()
	return mv
}

// tracer owns every wrapper of one traced measurement and folds their
// records into per-layer totals.
type tracer struct {
	keepSpans bool

	mu      sync.Mutex
	ctrls   []*tracedCtrl
	movers  []*tracedMover
	conns   []*tracedConn
	buildNS int64 // controller construction time
}

func newTracer(keepSpans bool) *tracer { return &tracer{keepSpans: keepSpans} }

// controller wraps a freshly built controller; build is the time its
// construction took. Adaptive controllers are refused: the wrapper would
// hide cac.Adaptive, and none of the workloads uses them.
func (t *tracer) controller(c cac.Controller, build time.Duration) (cac.Controller, error) {
	if _, ok := c.(cac.Adaptive); ok {
		return nil, fmt.Errorf("perfbench: cannot trace adaptive controller %s", cac.Name(c))
	}
	if _, ok := c.(interface{ Degraded() int }); ok {
		return nil, fmt.Errorf("perfbench: cannot trace degrading controller %s", cac.Name(c))
	}
	w := &tracedCtrl{inner: c, st: &ctrlStats{}, keepSpans: t.keepSpans}
	t.mu.Lock()
	t.ctrls = append(t.ctrls, w)
	t.buildNS += int64(build)
	t.mu.Unlock()
	return w, nil
}

// model wraps a mobility model.
func (t *tracer) model(m mobility.Model) mobility.Model { return tracedModel{inner: m, tr: t} }

// coreTotals folds every controller's counters.
type coreTotals struct {
	admits, releases   int64
	admitNS, releaseNS int64
	admitHist          hist
	busiestNS          int64 // admit+release time of the busiest controller
	buildNS            int64
}

func (t *tracer) core() coreTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out coreTotals
	for _, c := range t.ctrls {
		s := c.st
		out.admits += s.admits
		out.releases += s.releases
		out.admitNS += s.admitNS
		out.releaseNS += s.releaseNS
		out.admitHist.merge(&s.admitHist)
		out.busiestNS = max(out.busiestNS, s.admitNS+s.releaseNS)
	}
	out.buildNS = t.buildNS
	return out
}

// mobility folds every mover's counters: the Advance calls, their
// time, and the time spent creating movers.
func (t *tracer) mobility() (advances, advanceNS, newNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.movers {
		advances += m.st.advances
		advanceNS += m.st.advanceNS
		newNS += m.st.newNS
	}
	return advances, advanceNS, newNS
}

// tracedListener hands out tracedConns.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c}
	l.tr.mu.Lock()
	l.tr.conns = append(l.tr.conns, tc)
	l.tr.mu.Unlock()
	return tc, nil
}

// tracedConn records the server side of one session: the time each
// request's newline was read, and the span of the write that carried
// each reply. bsd serves a session strictly in order, one reply per
// request, so the i-th newline read and the i-th newline written belong
// to the same request.
type tracedConn struct {
	net.Conn

	mu       sync.Mutex
	reads    int
	writes   int
	readAt   []int64    // one entry per request newline
	writeAt  [][2]int64 // one entry per reply newline: write start, end
	writeNS  int64
	readMsgs int
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t := nowNS()
	k := bytes.Count(p[:n], []byte{'\n'})
	c.mu.Lock()
	if n > 0 {
		c.reads++
	}
	for range k {
		c.readAt = append(c.readAt, t)
	}
	c.readMsgs += k
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := nowNS()
	n, err := c.Conn.Write(p)
	t1 := nowNS()
	k := bytes.Count(p[:n], []byte{'\n'})
	c.mu.Lock()
	c.writes++
	c.writeNS += t1 - t0
	for range k {
		c.writeAt = append(c.writeAt, [2]int64{t0, t1})
	}
	c.mu.Unlock()
	return n, err
}

// span is one record of the trace file.
type span struct {
	ID     int64  `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes a run's spans, one JSON object per line, under the
// build directory, and returns the file's path.
func writeSpans(name string, spans []span) (string, error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
