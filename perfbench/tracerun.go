package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"facsp/internal/wire"
)

// layerTable lists every per-layer metric in report order. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var layerTable = []struct{ name, unit string }{
	{"loadgen.late_p99_us", "us"},
	{"loadgen.sent", "count"},
	{"net.reads", "count"},
	{"net.writes", "count"},
	{"net.msgs_per_read", "ratio"},
	{"net.msgs_per_write", "ratio"},
	{"net.write_us", "us"},
	{"net.loopback_us", "us"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.allocs_per_msg", "count"},
	{"bsd.residence_p50_us", "us"},
	{"bsd.residence_p99_us", "us"},
	{"bsd.self_us", "us"},
	{"core.admits", "count"},
	{"core.admit_us", "us"},
	{"core.admit_p99_us", "us"},
	{"core.release_us", "us"},
	{"core.busy_pct_max", "%"},
	{"core.build_s", "s"},
	{"mobility.advances", "count"},
	{"mobility.advance_ns", "ns"},
	{"cellsim.self_s", "s"},
	{"cellsim.handoffs_per_call", "ratio"},
	{"cellsim.cpu_util_pct", "%"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"recon.gap_pct", "%"},
}

// layerMetrics emits the whole table from the values a workload set.
func layerMetrics(v map[string]float64) []metric {
	known := make(map[string]bool, len(layerTable))
	out := make([]metric, 0, len(layerTable))
	for _, l := range layerTable {
		known[l.name] = true
		out = append(out, metric{l.name, v[l.name], l.unit})
	}
	for name := range v {
		if !known[name] {
			panic("perfbench: unknown layer metric " + name)
		}
	}
	return out
}

// traceSim measures a simulation workload twice, each for half the
// budget: untraced, then with every controller and mobility model
// wrapped. mk returns the batch function for a tracer (nil: untraced);
// buildInBatch says whether controllers are built inside a batch.
func traceSim(out *outcome, name string, budget time.Duration, mk func(tr *tracer) (func() (batch, error), error), buildInBatch bool) (*outcome, error) {
	plain, err := mk(nil)
	if err != nil {
		return nil, err
	}
	r0, err := repeat(budget/2, plain)
	if err != nil {
		return nil, err
	}
	tr := newTracer(false)
	traced, err := mk(tr)
	if err != nil {
		return nil, err
	}
	r1, err := repeat(budget/2, traced)
	if err != nil {
		return nil, err
	}
	checkBatches(name+"-untraced", r0, out)
	checkBatches(name+"-traced", r1, out)
	out.check(name+"-traced-equals-untraced", r1.batches[0].digest == r0.batches[0].digest,
		fmt.Sprintf("digest %016x traced, %016x untraced", r1.batches[0].digest, r0.batches[0].digest))

	nb := float64(len(r1.batches))
	var wallS, cpuS float64
	calls, handoffs := 0, 0
	for _, b := range r1.batches {
		wallS += b.wall.Seconds()
		cpuS += b.cpu
		calls += b.calls
		handoffs += b.handoffs
	}
	ct := tr.core()
	adv, advNS, newNS := tr.mobility()
	coreS := float64(ct.admitNS+ct.releaseNS) / 1e9
	mobS := float64(advNS+newNS) / 1e9
	buildS := float64(ct.buildNS) / 1e9
	builds := 1.0 // the admitter is built once, outside the batches
	inBatchBuild := 0.0
	if buildInBatch {
		builds = nb
		inBatchBuild = buildS
	}
	// Self time is CPU time not spent in the wrapped layers; what the
	// workers' capacity leaves beyond CPU time is idle waiting.
	selfS := cpuS - coreS - mobS - inBatchBuild
	capacityS := wallS * simWorkers

	v := map[string]float64{
		"core.admits":               float64(ct.admits) / nb,
		"core.admit_us":             safeDiv(float64(ct.admitNS), float64(ct.admits)) / 1e3,
		"core.admit_p99_us":         ct.admitHist.quantile(0.99) / 1e3,
		"core.release_us":           safeDiv(float64(ct.releaseNS), float64(ct.releases)) / 1e3,
		"core.busy_pct_max":         100 * float64(ct.busiestNS) / 1e9 / wallS,
		"core.build_s":              buildS / builds,
		"mobility.advances":         float64(adv) / nb,
		"mobility.advance_ns":       safeDiv(float64(advNS), float64(adv)),
		"cellsim.self_s":            selfS / nb,
		"cellsim.handoffs_per_call": safeDiv(float64(handoffs), float64(calls)),
		"cellsim.cpu_util_pct":      100 * cpuS / capacityS,
		"trace.overhead_pct":        100 * (median(r1.walls())/median(r0.walls()) - 1),
		"recon.gap_pct":             100 * (capacityS - coreS - mobS - inBatchBuild - selfS) / capacityS,
	}
	runtimeLayer(v, r0.rt[0], r0.rt[1], r0.calls())
	out.layers = layerMetrics(v)
	out.note("traced %d batches, untraced %d; per batch: core %.3fs, mobility %.3fs, self %.3fs, wall %.3fs x %d workers",
		len(r1.batches), len(r0.batches), coreS/nb, mobS/nb, selfS/nb, wallS/nb, simWorkers)
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// requestLayers is one measured request split into its layers (ns):
// latency = late + loopback + self + core. write overlaps loopback.
type requestLayers struct {
	latency, late, loopback, residence, self, core, write int64
}

// serveLayers links a traced phase's records: the generator's requests,
// the server side of each connection, and the controller spans.
type serveLayers struct {
	reqs    []requestLayers
	spans   []span
	linked  int // measured requests linked to every layer
	missing int // measured requests some layer had no record for
}

func linkServe(p *phaseResult, tr *tracer) serveLayers {
	zero := p.zero
	type key struct {
		op           coreOp
		speed, angle float64
	}
	cores := make(map[key]coreSpan)
	tr.mu.Lock()
	conns := append([]*tracedConn(nil), tr.conns...)
	for _, c := range tr.ctrls {
		for _, s := range c.st.spans {
			cores[key{s.op, s.speed, s.angle}] = s
		}
	}
	tr.mu.Unlock()
	byAddr := make(map[string]*tracedConn, len(conns))
	for _, c := range conns {
		byAddr[c.RemoteAddr().String()] = c
	}

	var out serveLayers
	var id int64
	for _, s := range p.sessions {
		sc := byAddr[s.conn.LocalAddr().String()]
		for i, x := range s.all {
			id++
			if sc == nil || i >= len(sc.readAt) || i >= len(sc.writeAt) {
				if x.ev.kind == kAdmit || x.ev.kind == kStatus {
					out.missing++
				}
				continue
			}
			readAt, w := sc.readAt[i], sc.writeAt[i]
			out.spans = append(out.spans,
				span{ID: id, Layer: "client", Start: x.sentAt, End: x.replyAt},
				span{ID: id, Layer: "bsd", Parent: "client", Start: readAt, End: w[0]},
				span{ID: id, Layer: "net.write", Parent: "bsd", Start: w[0], End: w[1]})
			var core coreSpan
			hasCore := false
			switch x.ev.kind {
			case kAdmit:
				core, hasCore = cores[key{opAdmit, x.ev.speed, x.ev.angle}]
			case kRelease:
				// A release carries its admit's floats: bsd releases the
				// stored grant, whose request they came in.
				core, hasCore = cores[key{opRelease, x.ev.speed, x.ev.angle}]
			}
			if hasCore {
				out.spans = append(out.spans, span{ID: id, Layer: "core", Parent: "bsd", Start: core.start, End: core.end})
			}
			if x.ev.kind != kAdmit && x.ev.kind != kStatus {
				continue
			}
			if x.ev.kind == kAdmit && !hasCore {
				out.missing++
				continue
			}
			// Residence ends where the reply is handed to the kernel. On
			// loopback the peer often reads the reply before the write
			// call returns, so the write's duration overlaps delivery:
			// it is reported on its own and lies inside the loopback time.
			due := zero + x.ev.due
			rl := requestLayers{
				latency:   x.replyAt - due,
				late:      x.sentAt - due,
				residence: w[0] - readAt,
				write:     w[1] - w[0],
			}
			if hasCore {
				rl.core = core.end - core.start
			}
			rl.loopback = (x.replyAt - x.sentAt) - rl.residence
			rl.self = rl.residence - rl.core
			out.reqs = append(out.reqs, rl)
			out.linked++
		}
	}
	return out
}

// reconcile compares the mean client-observed latency with the sum of
// the mean layer times, and returns the gap as a share of the latency
// together with the smallest self and loopback times seen: a request
// linked to the wrong records shows as a negative layer.
func (l serveLayers) reconcile() (gapPct float64, minSelf, minLoop int64) {
	if len(l.reqs) == 0 {
		return 100, 0, 0
	}
	var lat, sum float64
	minSelf, minLoop = l.reqs[0].self, l.reqs[0].loopback
	for _, r := range l.reqs {
		lat += float64(r.latency)
		sum += float64(r.late + r.loopback + r.self + r.core)
		minSelf = min(minSelf, r.self)
		minLoop = min(minLoop, r.loopback)
	}
	d := lat - sum
	if d < 0 {
		d = -d
	}
	return 100 * d / lat, minSelf, minLoop
}

func (l serveLayers) field(f func(requestLayers) int64) []float64 {
	out := make([]float64, len(l.reqs))
	for i, r := range l.reqs {
		out[i] = float64(f(r)) / 1e3
	}
	return out
}

// wireReplay replays a phase's captured request and reply lines through
// the wire codec: Decoder.Decode + Validate + CACRequest for requests,
// Encoder.Encode for replies. It returns ns per decoded and encoded
// message and allocations per message pair.
func wireReplay(reqLines, replyLines []byte) (decodeNS, encodeNS, allocs float64, err error) {
	var replies []wire.Response
	dec := wire.NewDecoder(bytes.NewReader(replyLines))
	for {
		var r wire.Response
		if err := dec.Decode(&r); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, 0, 0, err
		}
		replies = append(replies, r)
	}
	decodeAll := func() (int, error) {
		d := wire.NewDecoder(bytes.NewReader(reqLines))
		n := 0
		for {
			var r wire.Request
			if err := d.Decode(&r); err != nil {
				if errors.Is(err, io.EOF) {
					return n, nil
				}
				return n, err
			}
			if err := r.Validate(); err != nil {
				return n, err
			}
			if r.Op != wire.OpStatus {
				if _, err := r.CACRequest(); err != nil {
					return n, err
				}
			}
			n++
		}
	}
	encodeAll := func() error {
		e := wire.NewEncoder(io.Discard)
		for i := range replies {
			if err := e.Encode(replies[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// Repeat each pass until it has run for 100 ms, so the per-message
	// time is not one short interval.
	var ms runtime.MemStats
	timeIt := func(f func() error) (time.Duration, uint64, int, error) {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		passes := 0
		for time.Since(t0) < 100*time.Millisecond {
			if err := f(); err != nil {
				return 0, 0, 0, err
			}
			passes++
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		return el, ms.Mallocs - m0, passes, nil
	}
	var nReq int
	dt, dAllocs, dPasses, err := timeIt(func() error {
		var err error
		nReq, err = decodeAll()
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	et, eAllocs, ePasses, err := timeIt(encodeAll)
	if err != nil {
		return 0, 0, 0, err
	}
	if nReq == 0 || len(replies) == 0 {
		return 0, 0, 0, fmt.Errorf("perfbench: nothing to replay")
	}
	decodeNS = float64(dt) / float64(dPasses*nReq)
	encodeNS = float64(et) / float64(ePasses*len(replies))
	allocs = float64(dAllocs)/float64(dPasses*nReq) + float64(eAllocs)/float64(ePasses*len(replies))
	return decodeNS, encodeNS, allocs, nil
}

// replayClosedLoop sends plan's first n arrivals one at a time over one
// connection and returns the reply lines, then releases every grant. A
// single connection in closed loop makes the replies deterministic, so
// a traced and an untraced daemon must answer byte for byte alike.
func replayClosedLoop(d *daemon, plan []*event, n int) ([]byte, error) {
	conn := d.clients[0]
	r := bufio.NewReader(conn)
	var all []byte
	var live []*event
	roundTrip := func(line []byte) ([]byte, error) {
		if _, err := conn.Write(line); err != nil {
			return nil, err
		}
		reply, err := r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		all = append(all, reply...)
		return reply, nil
	}
	for _, ev := range plan[:min(n, len(plan))] {
		reply, err := roundTrip(ev.line)
		if err != nil {
			return nil, err
		}
		var resp wire.Response
		if err := json.Unmarshal(reply, &resp); err != nil {
			return nil, err
		}
		if ev.kind == kAdmit && resp.Accept {
			rel := &event{kind: kRelease, cell: ev.cell, class: ev.class, id: ev.id, speed: ev.speed, angle: ev.angle}
			if rel.line, err = encodeRequest(rel); err != nil {
				return nil, err
			}
			live = append(live, rel)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, rel := range live {
		if _, err := roundTrip(rel.line); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// traceServeFlash runs the reference phase twice, untraced and traced,
// each for half the budget, and splits the traced one into its layers.
func traceServeFlash(cfg config) (*outcome, error) {
	out := &outcome{}
	plan, err := refPlan(cfg)
	if err != nil {
		return nil, err
	}

	d0, _, _, err := setupDaemon(nil)
	if err != nil {
		return nil, err
	}
	var tl0 tally
	if err := warmUp(d0, cfg.seed, out, &tl0); err != nil {
		_ = d0.close()
		return nil, err
	}
	rt0 := readRuntime()
	r0, valid0, err := measure("untraced", d0, plan, false, out, &tl0)
	rt1 := readRuntime()
	if err != nil {
		_ = d0.close()
		return nil, err
	}
	serveTotals(d0, tl0, out)
	_ = d0.close()

	// The traced phase gets a fresh daemon and tracer per attempt, so
	// the records hold exactly the phase that is kept. The process is
	// warm from the untraced phase.
	var (
		tr     *tracer
		r1     *phaseResult
		buildS float64
		valid1 bool
	)
	for attempt := 0; ; attempt++ {
		tr = newTracer(true)
		d1, _, b, err := setupDaemon(tr)
		if err != nil {
			return nil, err
		}
		buildS = b
		var tl tally
		r1, err = runPhase(d1, plan, true)
		if err != nil {
			_ = d1.close()
			return nil, err
		}
		tl.add(r1)
		phaseChecks("traced", r1, out)
		serveTotals(d1, tl, out)
		// Once Serve has returned, the daemon's session and cell
		// goroutines have exited and the records are complete.
		_ = d1.close()
		valid1 = r1.late99() <= lateLimitUS
		if valid1 || attempt == retriesLate {
			break
		}
		out.note("traced phase invalid: loadgen.late_p99_us %.0f > %.0f; measured again", r1.late99(), lateLimitUS)
	}
	out.note("latency figures %s: loadgen.late_p99_us %.1f untraced, %.1f traced (quiet quartile of cycles), limit %.0f",
		validity(valid0 && valid1), r0.late99(), r1.late99(), lateLimitUS)

	ls := linkServe(r1, tr)
	gap, minSelf, minLoop := ls.reconcile()
	out.check("trace-links-every-request", ls.missing == 0 && ls.linked > 0,
		fmt.Sprintf("%d linked, %d missing", ls.linked, ls.missing))
	out.check("trace-layers-non-negative", minSelf >= 0 && minLoop >= 0,
		fmt.Sprintf("min bsd.self %d ns, min net.loopback %d ns", minSelf, minLoop))
	if path, err := writeSpans(fmt.Sprintf("serve-flash-seed%d", cfg.seed), ls.spans); err != nil {
		out.note("spans not written: %v", err)
	} else {
		out.note("%d spans written to %s", len(ls.spans), path)
	}

	// Transparency: the wrappers must not change a single reply byte.
	eq, err := equalReplies(plan)
	if err != nil {
		return nil, err
	}
	out.check("traced-replies-equal-untraced", eq, "closed-loop replay of the schedule's first arrivals")

	var reqLines, replyLines []byte
	for _, s := range r1.sessions {
		for _, x := range s.all {
			reqLines = append(reqLines, x.ev.line...)
			replyLines = append(replyLines, x.reply...)
		}
	}
	var reads, writes, readMsgs, writeMsgs int
	var writeNS int64
	for _, c := range tr.conns {
		reads += c.reads
		writes += c.writes
		readMsgs += c.readMsgs
		writeMsgs += len(c.writeAt)
		writeNS += c.writeNS
	}
	decNS, encNS, allocs, err := wireReplay(reqLines, replyLines)
	if err != nil {
		return nil, err
	}

	ct := tr.core()
	p50u, p50t := r0.admitQ(0.5), r1.admitQ(0.5)
	res := ls.field(func(r requestLayers) int64 { return r.residence })
	v := map[string]float64{
		"loadgen.late_p99_us":  r1.late99(),
		"loadgen.sent":         float64(r1.sent),
		"net.reads":            float64(reads),
		"net.writes":           float64(writes),
		"net.msgs_per_read":    safeDiv(float64(readMsgs), float64(reads)),
		"net.msgs_per_write":   safeDiv(float64(writeMsgs), float64(writes)),
		"net.write_us":         safeDiv(float64(writeNS), float64(writes)) / 1e3,
		"net.loopback_us":      mean(ls.field(func(r requestLayers) int64 { return r.loopback })),
		"wire.decode_ns":       decNS,
		"wire.encode_ns":       encNS,
		"wire.allocs_per_msg":  allocs,
		"bsd.residence_p50_us": quantile(res, 0.5),
		"bsd.residence_p99_us": quantile(res, 0.99),
		"bsd.self_us":          mean(ls.field(func(r requestLayers) int64 { return r.self })),
		"core.admits":          float64(ct.admits),
		"core.admit_us":        safeDiv(float64(ct.admitNS), float64(ct.admits)) / 1e3,
		"core.admit_p99_us":    ct.admitHist.quantile(0.99) / 1e3,
		"core.release_us":      safeDiv(float64(ct.releaseNS), float64(ct.releases)) / 1e3,
		"core.busy_pct_max":    100 * float64(ct.busiestNS) / float64(r1.wall),
		"core.build_s":         buildS,
		"trace.overhead_pct":   100 * (p50t/p50u - 1),
		"recon.gap_pct":        gap,
	}
	runtimeLayer(v, rt0, rt1, r0.sent)
	out.layers = layerMetrics(v)
	out.note("admit p50 %.1f us untraced, %.1f us traced (quiet quartile of cycles)", p50u, p50t)
	out.note("mean client latency %.1f us = late %.1f + net.loopback %.1f + bsd.self %.1f + core %.1f; the server write (%.1f) lies inside the loopback time",
		mean(ls.field(func(r requestLayers) int64 { return r.latency })),
		mean(ls.field(func(r requestLayers) int64 { return r.late })),
		mean(ls.field(func(r requestLayers) int64 { return r.loopback })),
		mean(ls.field(func(r requestLayers) int64 { return r.self })),
		mean(ls.field(func(r requestLayers) int64 { return r.core })),
		mean(ls.field(func(r requestLayers) int64 { return r.write })))
	return out, nil
}

// equalReplies replays the same closed-loop sequence through an untraced
// and a traced daemon and compares the reply bytes.
func equalReplies(plan []*event) (bool, error) {
	var got [2][]byte
	for i, tr := range []*tracer{nil, newTracer(true)} {
		d, err := startDaemon(tr)
		if err != nil {
			return false, err
		}
		got[i], err = replayClosedLoop(d, plan, 2000)
		_ = d.close()
		if err != nil {
			return false, err
		}
	}
	return len(got[0]) > 0 && bytes.Equal(got[0], got[1]), nil
}
