package bsd

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/metrics"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// outcomeTally counts admission outcomes per cell and class, indexed
// like the daemon's metrics counters.
type outcomeTally [][3][3]uint64 // [cell][class-traffic.Text][admit, block, drop]

// sessionLedger is one generating goroutine's reference: the grants its
// current session holds and the outcomes every session of it saw.
type sessionLedger struct {
	live        map[grantKey]traffic.Class
	tally       outcomeTally
	disconnects int
}

// exclusive wraps a cell's controller and counts Admit and Release
// calls that overlap another on the same cell: the daemon must
// serialise them.
type exclusive struct {
	cac.Controller
	inflight, overlaps atomic.Int64
}

func (e *exclusive) enter() {
	if e.inflight.Add(1) > 1 {
		e.overlaps.Add(1)
	}
}

func (e *exclusive) Admit(r cac.Request) cac.Decision {
	e.enter()
	defer e.inflight.Add(-1)
	return e.Controller.Admit(r)
}

func (e *exclusive) Release(r cac.Request) error {
	e.enter()
	defer e.inflight.Add(-1)
	return e.Controller.Release(r)
}

// TestGeneratedOpsKeepLedger runs random admit, release, status and
// disconnect sequences from concurrent sessions over several cells and
// checks the daemon against the clients' own ledger: no two operations
// on a cell overlap, and once every disconnected session is cleaned up,
// each cell's status occupancy is the bandwidth of the live grants and
// Metrics() counts exactly the outcomes the clients saw.
func TestGeneratedOpsKeepLedger(t *testing.T) {
	const (
		sessions = 4
		ops      = 300
	)
	classes := [...]traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
	facsp, err := core.NewFACSP(core.DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	guard, err := baseline.NewGuardChannel(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	cells := append(sharingCells(t, 1, 40), facsp, guard)
	for i, c := range cells {
		cells[i] = &exclusive{Controller: c}
	}

	// Every op may open a new session, plus the final status client.
	ln := newCountingListener(t, sessions*(ops+1)+1)
	srv, shutdown := serveListener(t, Config{Cells: cells}, ln)
	defer shutdown()
	addr := ln.Addr().String()

	ledgers := make([]*sessionLedger, sessions)
	clients := make([]*Client, sessions)
	var wg sync.WaitGroup
	for s := range sessions {
		led := &sessionLedger{live: map[grantKey]traffic.Class{}, tally: make(outcomeTally, len(cells))}
		ledgers[s] = led
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(s), 99))
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { clients[s] = cl }()
			for i := range ops {
				key := grantKey{cell: rng.IntN(len(cells)), id: uint64(1 + rng.IntN(12))}
				held, isLive := led.live[key]
				switch p := rng.IntN(100); {
				case p < 45:
					class := classes[rng.IntN(len(classes))]
					handoff := rng.IntN(10) < 3
					resp, err := cl.AdmitWith(key.id, class.String(), AdmitOptions{
						Cell: key.cell, SpeedKmh: rng.Float64() * 120, AngleDeg: rng.Float64()*360 - 180, Handoff: handoff,
					})
					if err != nil {
						t.Errorf("session %d op %d: admit: %v", s, i, err)
						return
					}
					if isLive {
						if resp.OK {
							t.Errorf("session %d op %d: duplicate admit of %+v answered %+v", s, i, key, resp)
						}
						continue
					}
					if !resp.OK {
						t.Errorf("session %d op %d: admit %+v failed: %+v", s, i, key, resp)
						continue
					}
					col := 1 // block
					switch {
					case resp.Accept:
						col = 0
						led.live[key] = class
					case handoff:
						col = 2
					}
					led.tally[key.cell][class-traffic.Text][col]++

				case p < 75:
					class := held
					if !isLive {
						class = classes[rng.IntN(len(classes))]
					}
					resp, err := cl.ReleaseIn(key.cell, key.id, class.String())
					if err != nil {
						t.Errorf("session %d op %d: release: %v", s, i, err)
						return
					}
					if resp.OK != isLive {
						t.Errorf("session %d op %d: release of %+v (live %v) answered %+v", s, i, key, isLive, resp)
					}
					delete(led.live, key)

				case p < 95:
					resp, err := cl.StatusIn(key.cell)
					if err != nil {
						t.Errorf("session %d op %d: status: %v", s, i, err)
						return
					}
					if !resp.OK || resp.Occupancy < 0 || resp.Occupancy > resp.Capacity {
						t.Errorf("session %d op %d: status = %+v", s, i, resp)
					}

				default:
					// The daemon releases the session's grants itself.
					_ = cl.Close()
					led.disconnects++
					clear(led.live)
					if cl, err = Dial(addr); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, cl := range clients {
		if cl != nil {
			defer cl.Close()
		}
	}
	if t.Failed() {
		return
	}

	// Quiet: every disconnected session has been torn down, which the
	// daemon does only after releasing its grants.
	want := make(outcomeTally, len(cells))
	wantOcc := make([]float64, len(cells))
	disconnects := 0
	for _, led := range ledgers {
		disconnects += led.disconnects
		for key, class := range led.live {
			wantOcc[key.cell] += class.Bandwidth()
		}
		for c := range led.tally {
			for k := range led.tally[c] {
				for col, n := range led.tally[c][k] {
					want[c][k][col] += n
				}
			}
		}
	}
	for range disconnects {
		select {
		case <-ln.closed:
		case <-time.After(5 * time.Second):
			t.Fatal("a disconnected session was not torn down")
		}
	}

	checker, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer checker.Close()
	for c := range cells {
		resp, err := checker.StatusIn(c)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Occupancy != wantOcc[c] {
			t.Errorf("cell %d occupancy = %v, live grants hold %v", c, resp.Occupancy, wantOcc[c])
		}
		for k, class := range classes {
			got := [3]uint64{
				srv.Metrics().CounterValue(c, metrics.Admits(class)),
				srv.Metrics().CounterValue(c, metrics.Blocks(class)),
				srv.Metrics().CounterValue(c, metrics.Drops(class)),
			}
			if got != want[c][k] {
				t.Errorf("cell %d %v admits/blocks/drops = %v, clients saw %v", c, class, got, want[c][k])
			}
		}
	}
	for c, ctrl := range cells {
		if n := ctrl.(*exclusive).overlaps.Load(); n != 0 {
			t.Errorf("cell %d: %d operations overlapped another", c, n)
		}
	}
	if n := srv.Shed(); n != 0 {
		t.Errorf("%d requests shed", n)
	}

	// Close drains every live session: nothing stays granted.
	shutdown()
	for c, ctrl := range cells {
		if occ := ctrl.Occupancy(); occ != 0 {
			t.Errorf("cell %d occupancy after drain = %v", c, occ)
		}
	}
}

// TestGeneratedOpsKeepLedgerPerOp is the single-session variant of
// TestGeneratedOpsKeepLedger. With one session nothing else moves a
// cell, so the ledger must hold exactly after every operation: each
// response's occupancy and a status of every cell equal the bandwidth of
// the session's live grants, and once a disconnected session is torn
// down every cell is back to zero.
func TestGeneratedOpsKeepLedgerPerOp(t *testing.T) {
	const ops = 400
	classes := [...]traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
	facsp, err := core.NewFACSP(core.DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	guard, err := baseline.NewGuardChannel(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	cells := append(sharingCells(t, 1, 40), facsp, guard)

	// Every op may open a new session, plus the first one.
	ln := newCountingListener(t, ops+1)
	_, shutdown := serveListener(t, Config{Cells: cells}, ln)
	defer shutdown()
	addr := ln.Addr().String()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	live := map[grantKey]traffic.Class{}
	held := func(cell int) float64 {
		sum := 0.0
		for key, class := range live {
			if key.cell == cell {
				sum += class.Bandwidth()
			}
		}
		return sum
	}
	checkCells := func(i int, what string) {
		t.Helper()
		for c := range cells {
			resp, err := cl.StatusIn(c)
			if err != nil {
				t.Fatalf("op %d (%s): status: %v", i, what, err)
			}
			if !resp.OK || resp.Occupancy != held(c) {
				t.Fatalf("op %d (%s): cell %d status %+v, live grants hold %v", i, what, c, resp, held(c))
			}
		}
	}

	accepts, disconnects := 0, 0
	rng := rand.New(rand.NewPCG(7, 99))
	for i := range ops {
		key := grantKey{cell: rng.IntN(len(cells)), id: uint64(1 + rng.IntN(12))}
		class, isLive := live[key]
		var (
			resp wire.Response
			what string
		)
		switch p := rng.IntN(100); {
		case p < 45:
			what = "admit"
			if !isLive {
				class = classes[rng.IntN(len(classes))]
			}
			resp, err = cl.AdmitWith(key.id, class.String(), AdmitOptions{
				Cell: key.cell, SpeedKmh: rng.Float64() * 120, AngleDeg: rng.Float64()*360 - 180, Handoff: rng.IntN(10) < 3,
			})
			if err != nil {
				t.Fatalf("op %d: admit: %v", i, err)
			}
			if resp.OK == isLive {
				t.Fatalf("op %d: admit of %+v (live %v) answered %+v", i, key, isLive, resp)
			}
			if resp.OK && resp.Accept {
				live[key] = class
				accepts++
			}

		case p < 75:
			what = "release"
			if !isLive {
				class = classes[rng.IntN(len(classes))]
			}
			resp, err = cl.ReleaseIn(key.cell, key.id, class.String())
			if err != nil {
				t.Fatalf("op %d: release: %v", i, err)
			}
			if resp.OK != isLive {
				t.Fatalf("op %d: release of %+v (live %v) answered %+v", i, key, isLive, resp)
			}
			delete(live, key)

		case p < 95:
			what = "status"
			if resp, err = cl.StatusIn(key.cell); err != nil {
				t.Fatalf("op %d: status: %v", i, err)
			}

		default:
			// The daemon releases the session's grants when it tears the
			// session down.
			_ = cl.Close()
			select {
			case <-ln.closed:
			case <-time.After(5 * time.Second):
				t.Fatalf("op %d: the disconnected session was not torn down", i)
			}
			clear(live)
			disconnects++
			if cl, err = Dial(addr); err != nil {
				t.Fatal(err)
			}
			checkCells(i, "disconnect")
			continue
		}
		if resp.Occupancy != held(key.cell) {
			t.Fatalf("op %d (%s %+v): response occupancy %v, live grants hold %v", i, what, key, resp.Occupancy, held(key.cell))
		}
		checkCells(i, what)
	}
	if accepts < 20 || disconnects < 5 {
		t.Errorf("run exercises too little: %d accepted admits, %d disconnects", accepts, disconnects)
	}
}
