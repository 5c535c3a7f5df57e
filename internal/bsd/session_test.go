package bsd

import (
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facsp/internal/wire"
)

// countingListener wraps every connection the daemon accepts: it counts
// the daemon's writes and reports each connection the daemon closes.
type countingListener struct {
	net.Listener
	writes atomic.Int64
	// closed receives one value per connection the daemon closes; its
	// buffer holds one per session the test opens, so Close never blocks.
	closed chan struct{}
}

func newCountingListener(t *testing.T, sessions int) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &countingListener{Listener: ln, closed: make(chan struct{}, sessions)}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *countingConn) Close() error {
	c.once.Do(func() { c.l.closed <- struct{}{} })
	return c.Conn.Close()
}

func requestLine(t *testing.T, req wire.Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestPipelinedBurstCoalescesReplies sends N admits in one write: the
// daemon must answer all N in order — each reply's occupancy counts its
// own grant — in fewer than N writes.
func TestPipelinedBurstCoalescesReplies(t *testing.T) {
	const n = 64
	ln := newCountingListener(t, 1)
	_, shutdown := serveListener(t, Config{Cells: sharingCells(t, 1, 1000)}, ln)
	defer shutdown()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	for i := 1; i <= n; i++ {
		burst = append(burst, requestLine(t, wire.Request{V: wire.Version, Op: wire.OpAdmit, ID: uint64(i), Class: "text"})...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	for i := 1; i <= n; i++ {
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !resp.OK || !resp.Accept || resp.Occupancy != float64(i) {
			t.Fatalf("reply %d = %+v, want the accept at occupancy %d", i, resp, i)
		}
	}
	if w := ln.writes.Load(); w >= n {
		t.Errorf("daemon made %d writes for %d pipelined replies", w, n)
	}
}

// TestSplitRequestDoesNotHoldReply sends one complete request and half
// of the next: the first reply must arrive before the rest is sent.
func TestSplitRequestDoesNotHoldReply(t *testing.T) {
	addr, _, shutdown := startConfigServer(t, Config{Cells: sharingCells(t, 2, 40)})
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := requestLine(t, wire.Request{V: wire.Version, Op: wire.OpStatus})
	second := requestLine(t, wire.Request{V: wire.Version, Op: wire.OpStatus, Cell: 1})
	half := len(second) / 2
	if _, err := conn.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("reply to the complete request held back: %v", err)
	}
	if !resp.OK || resp.Cell != 0 {
		t.Fatalf("first reply = %+v", resp)
	}
	if _, err := conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Cell != 1 {
		t.Fatalf("second reply = %+v", resp)
	}
}

// TestBusyCellDoesNotHoldReply pipelines an admit on a free cell and one
// on a cell whose controller is blocked by another session: the first
// reply must arrive while the second request still waits for its cell.
func TestBusyCellDoesNotHoldReply(t *testing.T) {
	blocked := newBlockingCtrl()
	cells := append(sharingCells(t, 1, 40), blocked)
	addr, _, shutdown := startConfigServer(t, Config{Cells: cells})
	defer shutdown()

	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	held := make(chan wire.Response, 1)
	go func() {
		resp, err := holder.AdmitWith(1, "voice", AdmitOptions{Cell: 1})
		if err != nil {
			t.Errorf("holding admit: %v", err)
		}
		held <- resp
	}()
	<-blocked.entered

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	free := requestLine(t, wire.Request{V: wire.Version, Op: wire.OpAdmit, ID: 1, Class: "voice"})
	busy := requestLine(t, wire.Request{V: wire.Version, Op: wire.OpAdmit, ID: 2, Cell: 1, Class: "voice"})
	if _, err := conn.Write(append(free, busy...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		close(blocked.gate)
		t.Fatalf("reply for the free cell held back while cell 1 is busy: %v", err)
	}
	if !resp.OK || !resp.Accept || resp.Cell != 0 {
		t.Errorf("free-cell reply = %+v", resp)
	}

	close(blocked.gate)
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Accept || resp.Cell != 1 {
		t.Errorf("busy-cell reply = %+v", resp)
	}
	if resp := <-held; !resp.OK || !resp.Accept {
		t.Errorf("holding admit = %+v", resp)
	}
}
