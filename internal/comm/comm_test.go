package comm

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// endpointsUnderTest runs a subtest against both transports.
func endpointsUnderTest(t *testing.T, n int, fn func(t *testing.T, eps []Endpoint)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		c := NewMemCluster(n)
		defer c.Close()
		fn(t, c.Endpoints())
	})
	t.Run("tcp", func(t *testing.T) {
		tcps, err := NewTCPClusterLoopback(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Endpoint, n)
		for i, e := range tcps {
			eps[i] = e
		}
		defer func() {
			for _, e := range tcps {
				e.Close()
			}
		}()
		fn(t, eps)
	})
}

func TestSendRecvBasic(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		payload := []byte("hello graph")
		if err := eps[0].SendBufs(1, KindUpdate, 7, Buffers{append([]byte(nil), payload...)}); err != nil {
			t.Fatal(err)
		}
		m, err := eps[1].Recv(0, KindUpdate, 7)
		if err != nil {
			t.Fatal(err)
		}
		if m.From != 0 || m.Kind != KindUpdate || m.Tag != 7 || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("got %+v", m)
		}
	})
}

func TestKindsAreIndependentStreams(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		// Interleave kinds; receive in the opposite order.
		if err := eps[0].SendBufs(1, KindUpdate, 1, Buffers{[]byte("u")}); err != nil {
			t.Fatal(err)
		}
		if err := eps[0].SendBufs(1, KindDependency, 2, Buffers{[]byte("d")}); err != nil {
			t.Fatal(err)
		}
		md, err := eps[1].Recv(0, KindDependency, 2)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := eps[1].Recv(0, KindUpdate, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(md.Payload) != "d" || string(mu.Payload) != "u" {
			t.Fatalf("payloads %q %q", md.Payload, mu.Payload)
		}
	})
}

func TestFIFOPerStream(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		const k = 100
		for i := 0; i < k; i++ {
			if err := eps[0].SendBufs(1, KindUpdate, int32(i), Buffers{[]byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			m, err := eps[1].Recv(0, KindUpdate, int32(i))
			if err != nil {
				t.Fatal(err)
			}
			if m.Payload[0] != byte(i) {
				t.Fatalf("message %d has payload %d", i, m.Payload[0])
			}
		}
	})
}

func TestTagMismatchIsProtocolError(t *testing.T) {
	c := NewMemCluster(2)
	defer c.Close()
	if err := c.Endpoint(0).SendBufs(1, KindUpdate, 5, nil); err != nil {
		t.Fatal(err)
	}
	_, err := c.Endpoint(1).Recv(0, KindUpdate, 6)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("tag mismatch returned %v, want *ProtocolError", err)
	}
	if pe.Node != 1 || pe.From != 0 || pe.Kind != KindUpdate || pe.WantTag != 6 || pe.GotTag != 5 {
		t.Fatalf("protocol error context = %+v", pe)
	}
}

func TestStatsAccounting(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		payload := make([]byte, 100)
		if err := eps[0].SendBufs(1, KindDependency, 0, Buffers{payload}); err != nil {
			t.Fatal(err)
		}
		if _, err := eps[1].Recv(0, KindDependency, 0); err != nil {
			t.Fatal(err)
		}
		s := eps[0].Stats()
		if got := s.SentMessages(KindDependency); got != 1 {
			t.Fatalf("sent msgs = %d", got)
		}
		wantBytes := int64(100 + headerBytes)
		if got := s.SentBytes(KindDependency); got != wantBytes {
			t.Fatalf("sent bytes = %d, want %d", got, wantBytes)
		}
		if got := s.SentBytes(KindUpdate); got != 0 {
			t.Fatalf("update bytes = %d, want 0", got)
		}
		r := eps[1].Stats()
		if got := r.ReceivedBytes(KindDependency); got != wantBytes {
			t.Fatalf("recv bytes = %d, want %d", got, wantBytes)
		}
		if s.totalSentBytes() != wantBytes {
			t.Fatalf("total = %d", s.totalSentBytes())
		}
		s.Reset()
		if s.totalSentBytes() != 0 || s.SentMessages(KindDependency) != 0 {
			t.Fatal("Reset did not zero counters")
		}
	})
}

// Conservation: across a random all-to-all exchange, total bytes sent
// equals total bytes received, per kind.
func TestStatsConservation(t *testing.T) {
	endpointsUnderTest(t, 4, func(t *testing.T, eps []Endpoint) {
		n := len(eps)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					for m := 0; m < 10; m++ {
						kind := Kind(m % 2)
						payload := make([]byte, (i+j+m)%17)
						if err := eps[i].SendBufs(NodeID(j), kind, int32(m), Buffers{payload}); err != nil {
							t.Error(err)
							return
						}
					}
				}
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					for m := 0; m < 10; m++ {
						if _, err := eps[i].Recv(NodeID(j), Kind(m%2), int32(m)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()
		for _, kind := range []Kind{KindUpdate, KindDependency} {
			var sent, recv int64
			for _, e := range eps {
				sent += e.Stats().SentBytes(kind)
				recv += e.Stats().ReceivedBytes(kind)
			}
			if sent != recv || sent == 0 {
				t.Fatalf("kind %v: sent %d recv %d", kind, sent, recv)
			}
		}
	})
}

func TestBarrierAllNodesArrive(t *testing.T) {
	endpointsUnderTest(t, 4, func(t *testing.T, eps []Endpoint) {
		var wg sync.WaitGroup
		for _, e := range eps {
			wg.Add(1)
			go func(e Endpoint) {
				defer wg.Done()
				for round := int32(0); round < 5; round++ {
					if err := Barrier(e, round); err != nil {
						t.Error(err)
					}
				}
			}(e)
		}
		wg.Wait()
	})
}

func TestAllReduce(t *testing.T) {
	endpointsUnderTest(t, 4, func(t *testing.T, eps []Endpoint) {
		results := make([]int64, len(eps))
		var wg sync.WaitGroup
		for i, e := range eps {
			wg.Add(1)
			go func(i int, e Endpoint) {
				defer wg.Done()
				r, err := AllReduceInt64(e, int64(i+1), 0, func(a, b int64) int64 { return a + b })
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = r
			}(i, e)
		}
		wg.Wait()
		for i, r := range results {
			if r != 10 { // 1+2+3+4
				t.Fatalf("node %d got %d, want 10", i, r)
			}
		}
	})
}

func TestSendToInvalidNode(t *testing.T) {
	c := NewMemCluster(2)
	defer c.Close()
	if err := c.Endpoint(0).SendBufs(5, KindUpdate, 0, nil); err == nil {
		t.Fatal("send to node 5 of 2 succeeded")
	}
}

func TestRecvAfterCloseReturnsError(t *testing.T) {
	c := NewMemCluster(2)
	c.Close()
	if _, err := c.Endpoint(1).Recv(0, KindUpdate, 0); err == nil {
		t.Fatal("Recv after Close returned no error")
	}
}

func TestKindString(t *testing.T) {
	if KindUpdate.String() != "update" || KindDependency.String() != "dependency" ||
		KindControl.String() != "control" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

// TestStreamBackpressure holds the inbox bound: a stream nobody receives
// from takes queueCap messages, blocks the next sender until one is
// received, and delivers all of them in order. Its ring grew with the
// backlog and is given back once the backlog drains.
func TestStreamBackpressure(t *testing.T) {
	c := NewMemCluster(2)
	defer c.Close()
	for i := 0; i < queueCap; i++ {
		if err := c.Endpoint(0).SendBufs(1, KindUpdate, int32(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- c.Endpoint(0).SendBufs(1, KindUpdate, queueCap, nil) }()
	select {
	case err := <-sent:
		t.Fatalf("send %d into a full stream returned %v without blocking", queueCap+1, err)
	case <-time.After(50 * time.Millisecond):
	}
	s := c.endpoints[1].stream(0, KindUpdate)
	for i := 0; i <= queueCap; i++ {
		m, err := c.Endpoint(1).Recv(0, KindUpdate, int32(i))
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		m.Release()
		if i == 0 {
			if err := <-sent; err != nil {
				t.Fatalf("blocked send: %v", err)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n != 0 || s.ring != nil {
		t.Fatalf("drained stream holds %d messages in a %d-slot ring, want none", s.n, len(s.ring))
	}
}

// TestStreamRingFollowsBacklog sends a short backlog: the stream's ring
// is the smallest that holds it, not the bound.
func TestStreamRingFollowsBacklog(t *testing.T) {
	c := NewMemCluster(2)
	defer c.Close()
	for i := 0; i < minRing+1; i++ {
		if err := c.Endpoint(0).SendBufs(1, KindDependency, int32(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	s := c.endpoints[1].stream(0, KindDependency)
	s.mu.Lock()
	n := len(s.ring)
	s.mu.Unlock()
	if n != 2*minRing {
		t.Fatalf("a %d-message backlog grew a %d-slot ring, want %d", minRing+1, n, 2*minRing)
	}
	if _, err := c.Endpoint(1).Recv(0, Kind(7), 0); err == nil {
		t.Fatal("receive of an unknown kind succeeded")
	}
}

func BenchmarkMemSendRecv(b *testing.B) {
	c := NewMemCluster(2)
	defer c.Close()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Endpoint(0).SendBufs(1, KindUpdate, int32(i), Buffers{bufpool.Get(1024)}); err != nil {
			b.Fatal(err)
		}
		m, err := c.Endpoint(1).Recv(0, KindUpdate, int32(i))
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}
