package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// paddedStatus is a status request padded with spaces to exactly n
// bytes, newline excluded.
func paddedStatus(n int) string {
	const head, tail = `{"v":1,"op":"status"`, `}`
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// TestDecoderFraming pins how the decoder splits lines: a trailing "\r"
// is dropped, a final line without a newline is still a message, a blank
// line is a malformed message, and a line may hold up to 64 KiB with its
// newline.
func TestDecoderFraming(t *testing.T) {
	const status = `{"v":1,"op":"status"}`
	for _, tc := range []struct {
		name string
		in   string
		ok   int   // messages decoded before the error
		err  error // nil: a malformed-message error; else errors.Is
	}{
		{"crlf", status + "\r\n" + status + "\r\n", 2, io.EOF},
		{"final-without-newline", status + "\n" + status, 2, io.EOF},
		{"blank-line", status + "\n\n" + status + "\n", 1, nil},
		{"just-under-bound", paddedStatus(64<<10-1) + "\n" + status + "\n", 2, io.EOF},
		{"just-over-bound", paddedStatus(64<<10) + "\n" + status + "\n", 0, bufio.ErrTooLong},
	} {
		dec := NewDecoder(strings.NewReader(tc.in))
		var err error
		n := 0
		for {
			var r Request
			if err = dec.Decode(&r); err != nil {
				break
			}
			if r.Op != OpStatus {
				t.Errorf("%s: message %d decoded as %+v", tc.name, n, r)
			}
			n++
		}
		if n != tc.ok {
			t.Errorf("%s: %d messages before %v, want %d", tc.name, n, err, tc.ok)
		}
		switch {
		case tc.err != nil && !errors.Is(err, tc.err):
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.err)
		case tc.err == nil && (errors.Is(err, io.EOF) || errors.Is(err, bufio.ErrTooLong)):
			t.Errorf("%s: error %v, want a malformed-message error", tc.name, err)
		}
	}
}

// TestBufferWaitsForFlush checks that Buffer holds messages until Flush,
// while Encode still writes through.
func TestBufferWaitsForFlush(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	r := Response{V: Version, OK: true, Capacity: 40}
	for range 3 {
		if err := enc.Buffer(r); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("Buffer wrote %q before Flush", buf.String())
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	const line = `{"v":1,"ok":true,"occupancy":0,"capacity":40}` + "\n"
	if got := buf.String(); got != strings.Repeat(line, 3) {
		t.Errorf("flushed %q", got)
	}
	buf.Reset()
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	if buf.String() != line {
		t.Errorf("Encode wrote %q", buf.String())
	}
}

// chunkConn serves its chunks one per Read, counts Writes, and records
// at every Read how many bytes had been written before it.
type chunkConn struct {
	chunks  []string
	written bytes.Buffer
	writes  int
	atRead  []string
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.atRead = append(c.atRead, c.written.String())
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks = c.chunks[1:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) {
	c.writes++
	return c.written.Write(p)
}

// TestSessionFlushesBeforeRead checks the session's flush rule: replies
// to requests that arrived together leave in one write, made before the
// decoder next reads, so a reply never waits on the rest of a split
// request.
func TestSessionFlushesBeforeRead(t *testing.T) {
	const req = `{"v":1,"op":"status"}` + "\n"
	conn := &chunkConn{chunks: []string{req + req + req + req[:7], req[7:]}}
	dec, enc := NewSession(conn)
	reply := Response{V: Version, OK: true, Capacity: 40}
	for {
		var r Request
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Buffer(reply); err != nil {
			t.Fatal(err)
		}
	}
	const line = `{"v":1,"ok":true,"occupancy":0,"capacity":40}` + "\n"
	want := []string{"", strings.Repeat(line, 3), strings.Repeat(line, 4)}
	if len(conn.atRead) != len(want) {
		t.Fatalf("%d reads, want %d", len(conn.atRead), len(want))
	}
	for i := range want {
		if conn.atRead[i] != want[i] {
			t.Errorf("read %d: written before it %q, want %q", i, conn.atRead[i], want[i])
		}
	}
	if conn.writes != 2 {
		t.Errorf("%d writes for two batches of replies", conn.writes)
	}
}
