package comm

import (
	"bytes"
	"errors"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
)

func TestSendBufsRoundTrip(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		want := []byte("vectored hello, graph")
		// Three slab buffers with a zero-length one in the middle: the
		// frame on the wire is the concatenation.
		b1 := bufpool.Get(8)
		copy(b1, want[:8])
		b2 := bufpool.Get(0)
		b3 := bufpool.Get(len(want) - 8)
		copy(b3, want[8:])
		if err := eps[0].SendBufs(1, KindUpdate, 9, Buffers{b1, b2, b3}); err != nil {
			t.Fatal(err)
		}
		m, err := eps[1].Recv(0, KindUpdate, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Payload, want) {
			t.Fatalf("payload = %q, want %q", m.Payload, want)
		}
		m.Release()
		if m.Payload != nil {
			t.Fatal("Release did not poison the payload")
		}
		m.Release() // idempotent

		// An empty frame (nil Buffers) still delivers.
		if err := eps[0].SendBufs(1, KindDependency, 10, nil); err != nil {
			t.Fatal(err)
		}
		m, err = eps[1].Recv(0, KindDependency, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Payload) != 0 {
			t.Fatalf("empty frame delivered %d bytes", len(m.Payload))
		}
		m.Release()
	})
}

func TestSendBufsToInvalidNode(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		if err := eps[0].SendBufs(5, KindUpdate, 0, Buffers{bufpool.Get(16)}); err == nil {
			t.Fatal("SendBufs to out-of-range node succeeded")
		}
	})
}

// sinkConn is an in-memory net.Conn stand-in for exercising the frame
// writer without sockets.
type sinkConn struct {
	bytes.Buffer
}

func (c *sinkConn) Close() error                       { return nil }
func (c *sinkConn) LocalAddr() net.Addr                { return nil }
func (c *sinkConn) RemoteAddr() net.Addr               { return nil }
func (c *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzVecFrameRoundTrip drives the vectored length-prefix framing with
// arbitrary payloads carved at arbitrary split points — including
// zero-length buffers from duplicate cuts — and asserts the decoded
// frame matches byte for byte. Two frames share one conn to pin that
// the per-conn write scratch survives writev's consume.
func FuzzVecFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), byte(0), int32(0), []byte{}, []byte{})
	f.Add(uint32(3), byte(1), int32(42), []byte("hello vectored world"), []byte{0, 3, 3, 11})
	f.Add(uint32(7), byte(2), int32(-1), bytes.Repeat([]byte{0xAB}, 300), []byte{1, 255, 128})
	f.Fuzz(func(t *testing.T, from uint32, kind byte, tag int32, payload, splits []byte) {
		cuts := make([]int, 0, len(splits)+2)
		cuts = append(cuts, 0)
		for _, s := range splits {
			cuts = append(cuts, int(s)%(len(payload)+1))
		}
		cuts = append(cuts, len(payload))
		sort.Ints(cuts)
		var bufs Buffers
		for i := 1; i < len(cuts); i++ {
			bufs = append(bufs, payload[cuts[i-1]:cuts[i]])
		}

		conn := &sinkConn{}
		tc := &tcpConn{c: conn}
		for frame := 0; frame < 2; frame++ {
			if err := tc.writeFrame(NodeID(from), Kind(kind), tag, bufs); err != nil {
				t.Fatal(err)
			}
		}
		data := conn.Bytes()
		for frame := 0; frame < 2; frame++ {
			if len(data) < headerBytes {
				t.Fatalf("frame %d: %d bytes left, need %d header bytes", frame, len(data), headerBytes)
			}
			gotFrom, gotKind, gotTag, n := parseFrameHeader(data[:headerBytes])
			if gotFrom != NodeID(from) || gotKind != Kind(kind) || gotTag != tag {
				t.Fatalf("frame %d: header (%d,%d,%d), want (%d,%d,%d)",
					frame, gotFrom, gotKind, gotTag, from, kind, tag)
			}
			if n != len(payload) {
				t.Fatalf("frame %d: length %d, want %d", frame, n, len(payload))
			}
			data = data[headerBytes:]
			if !bytes.Equal(data[:n], payload) {
				t.Fatalf("frame %d: payload mismatch", frame)
			}
			data = data[n:]
		}
		if len(data) != 0 {
			t.Fatalf("%d trailing bytes after two frames", len(data))
		}
	})
}

func TestFrameHeaderMaxBoundary(t *testing.T) {
	var hdr [headerBytes]byte
	for _, n := range []int{0, maxFrameSize - 1, maxFrameSize, maxFrameSize + 1} {
		putFrameHeader(hdr[:], 3, KindDependency, 77, n)
		from, kind, tag, got := parseFrameHeader(hdr[:])
		if from != 3 || kind != KindDependency || tag != 77 || got != n {
			t.Fatalf("round-trip of length %d: got (%d,%d,%d,%d)", n, from, kind, tag, got)
		}
	}
}

// TestTCPOversizedFrameClosesInbox pins that a length prefix beyond
// maxFrameSize is treated as stream corruption (peer lost), not trusted
// with an allocation.
func TestTCPOversizedFrameClosesInbox(t *testing.T) {
	eps, err := NewTCPClusterLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()
	var hdr [headerBytes]byte
	putFrameHeader(hdr[:], 0, KindUpdate, 0, maxFrameSize+1)
	c := eps[0].conns[1]
	c.mu.Lock()
	_, err = c.c.Write(hdr[:])
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	_, err = eps[1].Recv(0, KindUpdate, 0)
	var ce *ClosedError
	if !errors.As(err, &ce) {
		t.Fatalf("Recv after oversized frame: %v, want *ClosedError", err)
	}
}

// TestTCPFrameFromWrongSenderClosesInbox pins that a frame whose header
// names a sender other than the connection's peer — bytes the peer
// controls — closes the inbox like any other stream corruption instead
// of panicking the reader goroutine, and with it the process.
func TestTCPFrameFromWrongSenderClosesInbox(t *testing.T) {
	eps, err := NewTCPClusterLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eps {
		defer e.Close()
	}
	frame := make([]byte, headerBytes+4)
	putFrameHeader(frame, 2, KindUpdate, 0, 4) // node 0's connection, claiming to be node 2
	c := eps[0].conns[1]
	c.mu.Lock()
	_, err = c.c.Write(frame)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var ce *ClosedError
	if _, err = eps[1].Recv(0, KindUpdate, 0); !errors.As(err, &ce) {
		t.Fatalf("Recv after a frame from the wrong sender: %v, want *ClosedError", err)
	}
	if _, err = eps[1].RecvTimeout(2, KindUpdate, 0, time.Second); !errors.As(err, &ce) {
		t.Fatalf("the forged frame was delivered as node 2's: %v, want *ClosedError", err)
	}
}

// TestTCPFrameOfUnknownKindClosesInbox pins that a kind byte outside
// the kinds this build knows — a byte the peer controls, which would
// index past the per-kind counters — closes the inbox like any other
// stream corruption instead of panicking the reader goroutine.
func TestTCPFrameOfUnknownKindClosesInbox(t *testing.T) {
	eps, err := NewTCPClusterLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()
	frame := make([]byte, headerBytes+4)
	putFrameHeader(frame, 0, Kind(200), 0, 4)
	c := eps[0].conns[1]
	c.mu.Lock()
	_, err = c.c.Write(frame)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var ce *ClosedError
	if _, err = eps[1].Recv(0, KindUpdate, 0); !errors.As(err, &ce) {
		t.Fatalf("Recv after a frame of kind 200: %v, want *ClosedError", err)
	}
	if got := eps[1].Stats().Peer(0).ReceivedMessages; got != 0 {
		t.Fatalf("the corrupt frame was counted: %d messages received", got)
	}
}

// TestSlabReuseNoCrossPollination floods the slab from concurrent
// sender/receiver pairs — every frame acquired from the pool, handed
// off, verified and Released — and checks no receiver ever observes
// another stream's bytes. Run under -race this also pins that the
// pool's recycling establishes happens-before between owners.
func TestSlabReuseNoCrossPollination(t *testing.T) {
	const frames = 200
	const n = 4
	c := NewMemCluster(n)
	defer c.Close()
	eps := c.Endpoints()
	pattern := func(s, r, i int) byte { return byte(s*31 + r*17 + i) }
	size := func(s, r, i int) int { return 1 + (i*37+s*13+r*7)%2000 }
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		for r := 0; r < n; r++ {
			if s == r {
				continue
			}
			wg.Add(2)
			go func(s, r int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					buf := bufpool.Get(size(s, r, i))
					pat := pattern(s, r, i)
					for j := range buf {
						buf[j] = pat
					}
					if err := eps[s].SendBufs(NodeID(r), KindUpdate, int32(i), Buffers{buf}); err != nil {
						t.Error(err)
						return
					}
				}
			}(s, r)
			go func(s, r int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					m, err := eps[r].Recv(NodeID(s), KindUpdate, int32(i))
					if err != nil {
						t.Error(err)
						return
					}
					if len(m.Payload) != size(s, r, i) {
						t.Errorf("stream %d->%d frame %d: %d bytes, want %d",
							s, r, i, len(m.Payload), size(s, r, i))
						return
					}
					pat := pattern(s, r, i)
					for j, b := range m.Payload {
						if b != pat {
							t.Errorf("stream %d->%d frame %d byte %d: %#x, want %#x",
								s, r, i, j, b, pat)
							return
						}
					}
					m.Release()
				}
			}(s, r)
		}
	}
	wg.Wait()
}

// BenchmarkTCPSendBufs measures the vectored send path end to end over
// a real loopback socket pair: payload from the slab, one writev, slab
// read at the receiver, Release back to the slab. Steady state is
// 0 allocs/op — the acceptance bar for the zero-copy data plane. A
// windowed ack every 32 frames keeps in-flight frames under the pool's
// per-class retention bound so the slab never misses.
func BenchmarkTCPSendBufs(b *testing.B) {
	eps, err := NewTCPClusterLoopback(2)
	if err != nil {
		b.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()
	const size = 4096
	const window = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for count := 1; ; count++ {
			m, err := eps[1].Recv(0, KindUpdate, 0)
			if err != nil {
				return
			}
			sentinel := len(m.Payload) == 1
			m.Release()
			if sentinel {
				return
			}
			if count%window == 0 {
				if err := eps[1].SendBufs(0, KindControl, 0, Buffers{bufpool.Get(8)}); err != nil {
					return
				}
			}
		}
	}()
	send := func(i int, bufs Buffers) error {
		bufs[0] = bufpool.Get(size)
		if err := eps[0].SendBufs(1, KindUpdate, 0, bufs); err != nil {
			return err
		}
		if (i+1)%window == 0 {
			m, err := eps[0].Recv(1, KindControl, 0)
			if err != nil {
				return err
			}
			m.Release()
		}
		return nil
	}
	bufs := make(Buffers, 1)
	for i := 0; i < 2*window; i++ { // warm the slab and per-conn scratch
		if err := send(i, bufs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send(i, bufs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bufs[0] = bufpool.Get(1)
	if err := eps[0].SendBufs(1, KindUpdate, 0, bufs); err != nil {
		b.Fatal(err)
	}
	<-done
}
