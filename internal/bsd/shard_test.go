package bsd

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"facsp/internal/adapt"
	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/wire"
)

// startConfigServer launches a daemon with the given config and returns
// its address, the server, and a shutdown func that also waits for
// Serve's drain to complete.
func startConfigServer(t *testing.T, cfg Config) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, shutdown := serveListener(t, cfg, ln)
	return ln.Addr().String(), srv, shutdown
}

// serveListener launches a daemon with the given config on ln and
// returns the server and a shutdown func that also waits for Serve's
// drain to complete.
func serveListener(t *testing.T, cfg Config, ln net.Listener) (*Server, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return srv, func() {
		_ = srv.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	}
}

func sharingCells(t *testing.T, n int, capacity float64) []cac.Controller {
	t.Helper()
	out := make([]cac.Controller, n)
	for i := range out {
		c, err := baseline.NewCompleteSharing(capacity)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

func TestNewNoCells(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Cells: []cac.Controller{nil}}); err == nil {
		t.Error("nil cell controller accepted")
	}
}

func TestMultiCellRouting(t *testing.T) {
	cells := sharingCells(t, 3, 40)
	addr, _, shutdown := startConfigServer(t, Config{Cells: cells})
	defer shutdown()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The same client ID may hold one grant per cell: IDs are scoped per
	// (session, cell).
	if resp, err := cl.Admit(1, "video", 0, 0, false); err != nil || !resp.Accept {
		t.Fatalf("cell 0 admit = %+v, %v", resp, err)
	}
	resp, err := cl.AdmitWith(1, "voice", AdmitOptions{Cell: 2})
	if err != nil || !resp.Accept {
		t.Fatalf("cell 2 admit = %+v, %v", resp, err)
	}
	if resp.Cell != 2 || resp.Occupancy != 5 {
		t.Errorf("cell 2 admit response = %+v, want cell 2 occupancy 5", resp)
	}

	// Each cell's occupancy is independent; the untouched middle cell
	// stays empty.
	if st, err := cl.StatusIn(1); err != nil || !st.OK || st.Occupancy != 0 || st.Cell != 1 {
		t.Errorf("cell 1 status = %+v, %v", st, err)
	}
	if got := cells[0].Occupancy(); got != 10 {
		t.Errorf("cell 0 occupancy = %v, want 10", got)
	}
	if got := cells[2].Occupancy(); got != 5 {
		t.Errorf("cell 2 occupancy = %v, want 5", got)
	}

	// Releasing on the wrong cell is an unknown-connection error; on the
	// right cell it succeeds.
	if resp, err := cl.ReleaseIn(1, 1, "video"); err != nil || resp.OK {
		t.Errorf("release on wrong cell = %+v, %v", resp, err)
	}
	if resp, err := cl.Release(1, "video"); err != nil || !resp.OK || resp.Occupancy != 0 {
		t.Errorf("cell 0 release = %+v, %v", resp, err)
	}
}

func TestUnknownAndNegativeCellRejected(t *testing.T) {
	addr, _, shutdown := startConfigServer(t, Config{Cells: sharingCells(t, 2, 40)})
	defer shutdown()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.StatusIn(5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown cell") {
		t.Errorf("out-of-range cell answered %+v", resp)
	}

	// A negative index fails wire validation before any routing.
	resp, err = cl.roundTrip(wire.Request{V: wire.Version, Op: wire.OpStatus, Cell: -3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "negative cell") {
		t.Errorf("negative cell answered %+v", resp)
	}
}

// blockingCtrl parks every Admit call until gate is closed, signalling
// entry on entered — the overload fixture: while it blocks, its cell
// worker is busy and the bounded queue fills.
type blockingCtrl struct {
	entered chan struct{}
	gate    chan struct{}
}

func newBlockingCtrl() *blockingCtrl {
	return &blockingCtrl{entered: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (b *blockingCtrl) Admit(cac.Request) cac.Decision {
	b.entered <- struct{}{}
	<-b.gate
	return cac.Decision{Accept: true, Score: 1, Outcome: "fits"}
}
func (b *blockingCtrl) Release(cac.Request) error { return nil }
func (b *blockingCtrl) Occupancy() float64        { return 0 }
func (b *blockingCtrl) Capacity() float64         { return 40 }

func TestShedUnderOverload(t *testing.T) {
	ctrl := newBlockingCtrl()
	addr, srv, shutdown := startConfigServer(t, Config{
		Cells:      []cac.Controller{ctrl},
		QueueDepth: 1,
	})
	defer shutdown()

	dial := func() *Client {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	a, b, c := dial(), dial(), dial()

	// Session A's admit occupies the cell worker (blocked inside the
	// controller), leaving the depth-1 queue empty.
	aResp := make(chan wire.Response, 1)
	go func() {
		resp, err := a.Admit(1, "voice", 0, 0, false)
		if err != nil {
			t.Errorf("session A admit: %v", err)
		}
		aResp <- resp
	}()
	<-ctrl.entered

	// Sessions B and C race for the single queue slot: whichever arrives
	// second must be shed immediately with the overloaded code, while the
	// worker is still blocked.
	bResp := make(chan wire.Response, 1)
	go func() {
		resp, err := b.Admit(2, "voice", 0, 0, false)
		if err != nil {
			t.Errorf("session B admit: %v", err)
		}
		bResp <- resp
	}()
	time.Sleep(50 * time.Millisecond)
	cOut, err := c.Admit(3, "voice", 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}

	shedResp := cOut
	if cOut.OK {
		// C won the queue slot; then B must have been the shed one.
		shedResp = <-bResp
	}
	if shedResp.OK || shedResp.Code != wire.CodeOverloaded {
		t.Fatalf("full queue answered %+v, want code %q", shedResp, wire.CodeOverloaded)
	}
	if !strings.Contains(shedResp.Err, "overloaded") {
		t.Errorf("shed err = %q", shedResp.Err)
	}
	if got := srv.Shed(); got != 1 {
		t.Errorf("Shed() = %d, want 1", got)
	}

	// Unblock the worker: the in-flight admit and the queued one both
	// complete normally — shedding dropped only the excess request.
	close(ctrl.gate)
	if resp := <-aResp; !resp.OK || !resp.Accept {
		t.Errorf("session A admit after unblock = %+v", resp)
	}
	if cOut.OK {
		if !cOut.Accept {
			t.Errorf("queued admit = %+v", cOut)
		}
	} else if resp := <-bResp; !resp.OK || !resp.Accept {
		t.Errorf("queued admit = %+v", resp)
	}
}

func TestOversizedLineAnswersError(t *testing.T) {
	addr, _, shutdown := startConfigServer(t, Config{Cells: sharingCells(t, 1, 40)})
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A 128 KiB line blows the decoder's 64 KiB bound: the daemon must
	// answer one error reply, then drop the session.
	line := make([]byte, 128<<10)
	for i := range line {
		line[i] = 'x'
	}
	line[len(line)-1] = '\n'
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no error response: %v", err)
	}
	if resp.OK {
		t.Errorf("oversized line produced OK response: %+v", resp)
	}
	if err := dec.Decode(&resp); err == nil {
		t.Error("session stayed open after oversized line")
	}
}

// TestOccupancyAtomicWithAdmission pins the accounting fix: every
// accepted admission reports the occupancy that includes its own grant,
// observed atomically with the decision. Under the old read-after-op
// pattern concurrent admissions could report each other's occupancy —
// with 20 concurrent 5 BU grants the reported values must be exactly
// {5, 10, ..., 100}, each seen once.
func TestOccupancyAtomicWithAdmission(t *testing.T) {
	addr, _, shutdown := startConfigServer(t, Config{Cells: sharingCells(t, 1, 1000)})
	defer shutdown()

	// Every session stays open until all admissions land: a closing
	// session would release its grant and legitimately reuse an occupancy
	// level.
	const grants = 20
	clients := make([]*Client, grants)
	for i := range clients {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	occ := make(chan float64, grants)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *Client, id uint64) {
			defer wg.Done()
			resp, err := cl.Admit(id, "voice", 0, 0, false)
			if err != nil || !resp.OK || !resp.Accept {
				t.Errorf("admit = %+v, %v", resp, err)
				return
			}
			occ <- resp.Occupancy
		}(cl, uint64(i+1))
	}
	wg.Wait()
	close(occ)

	seen := map[float64]bool{}
	for o := range occ {
		if seen[o] {
			t.Errorf("occupancy %v reported twice: two admissions observed the same cell state", o)
		}
		seen[o] = true
	}
	for want := 5.0; want <= grants*5; want += 5 {
		if !seen[want] {
			t.Errorf("no admission reported occupancy %v", want)
		}
	}
}

// TestCloseDrainsGrants pins the shutdown ordering: Close tears down
// live sessions, their grants are released through the cell workers, and
// only then does Serve return.
func TestCloseDrainsGrants(t *testing.T) {
	cells := sharingCells(t, 2, 40)
	srv, err := New(Config{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Admit(1, "video", 0, 0, false); err != nil || !resp.Accept {
		t.Fatalf("admit = %+v, %v", resp, err)
	}
	if resp, err := cl.AdmitWith(2, "voice", AdmitOptions{Cell: 1}); err != nil || !resp.Accept {
		t.Fatalf("admit = %+v, %v", resp, err)
	}

	_ = srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Serve has returned, so the drain is complete: every grant released.
	for i, c := range cells {
		if got := c.Occupancy(); got != 0 {
			t.Errorf("cell %d occupancy after drain = %v, want 0", i, got)
		}
	}
}

// TestAdmitWithMinBUDegradesOverWire drives a degraded admission through
// the full wire path: a fifth video into a cell already full of four,
// tolerating 5 BU, forces the adaptive scheme to squeeze the others.
func TestAdmitWithMinBUDegradesOverWire(t *testing.T) {
	ctrl, err := adapt.New(adapt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr, _, shutdown := startConfigServer(t, Config{Cells: []cac.Controller{ctrl}})
	defer shutdown()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Five videos fill the 40 BU cell: the fifth only fits because the
	// scheme squeezes the others one ladder step (10 -> 7 BU), landing at
	// 4x7 + 10 = 38 BU.
	for id := uint64(1); id <= 5; id++ {
		resp, err := cl.Admit(id, "video", 0, 0, false)
		if err != nil || !resp.OK || !resp.Accept {
			t.Fatalf("fill admit %d = %+v, %v", id, resp, err)
		}
		if id == 5 && (resp.Outcome != "degraded-others" || resp.Occupancy != 38) {
			t.Fatalf("fifth video = %+v, want degraded-others at 38 BU", resp)
		}
	}

	// A plain sixth video is out of degradation budget and loses...
	resp, err := cl.Admit(20, "video", 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accept {
		t.Fatalf("over-budget admit accepted: %+v", resp)
	}
	// ...but the wire options reach the scheme: a handoff with a 5 BU
	// degradation floor is squeezed in against the deeper handoff budget.
	resp, err = cl.AdmitWith(21, "video", AdmitOptions{Handoff: true, MinBU: 5, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Accept || resp.Outcome != "degraded-others" {
		t.Fatalf("degraded handoff admit = %+v", resp)
	}
	if resp.Allocated != 10 {
		t.Errorf("allocated = %v, want 10", resp.Allocated)
	}
	if resp.Occupancy > 40 {
		t.Errorf("occupancy %v exceeds capacity after degradation", resp.Occupancy)
	}
}
