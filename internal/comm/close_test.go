package comm

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestDoubleClose closes every endpoint twice on both transports; both
// calls must return without panicking and the second must be a no-op.
func TestDoubleClose(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		for _, e := range eps {
			if err := e.Close(); err != nil {
				t.Fatalf("first close: %v", err)
			}
		}
		for _, e := range eps {
			if err := e.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
		}
	})
}

// TestMemClusterDoubleClose covers the cluster-level teardown path,
// which owns the link workers in addition to the endpoints.
func TestMemClusterDoubleClose(t *testing.T) {
	c := NewMemClusterWithLink(3, &LinkModel{Latency: time.Microsecond, BytesPerSecond: 1e9})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringRecv blocks a receiver with nothing in flight, closes
// the endpoint concurrently, and expects a *ClosedError naming the
// blocked stream — on both transports.
func TestCloseDuringRecv(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		errc := make(chan error, 1)
		go func() {
			_, err := eps[1].Recv(0, KindDependency, 9)
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the receiver block
		if err := eps[1].Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			var ce *ClosedError
			if !errors.As(err, &ce) {
				t.Fatalf("recv after close returned %v, want *ClosedError", err)
			}
			if ce.Node != 1 || ce.From != 0 || ce.Kind != KindDependency {
				t.Fatalf("closed error context = %+v", ce)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("recv still blocked after close")
		}
	})
}

// TestConcurrentCloseDuringRecv races many receivers against Close to
// shake out teardown ordering bugs (run under -race in make race).
func TestConcurrentCloseDuringRecv(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Each goroutine owns a distinct (kind, goroutine) stream
				// via the tag; all must unblock with an error.
				if _, err := eps[1].Recv(0, Kind(i%int(numKinds)), int32(i)); err == nil {
					t.Error("recv returned nil error after close")
				}
			}(i)
		}
		time.Sleep(10 * time.Millisecond)
		var cg sync.WaitGroup
		for i := 0; i < 4; i++ {
			cg.Add(1)
			go func() {
				defer cg.Done()
				eps[1].Close()
			}()
		}
		cg.Wait()
		wg.Wait()
	})
}

// TestRecvTimeout exercises the deadline path on both transports: a
// timely message is delivered, an absent one times out with context.
func TestRecvTimeout(t *testing.T) {
	endpointsUnderTest(t, 2, func(t *testing.T, eps []Endpoint) {
		if err := eps[0].SendBufs(1, KindUpdate, 3, Buffers{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
		m, err := eps[1].RecvTimeout(0, KindUpdate, 3, time.Second)
		if err != nil || string(m.Payload) != "x" {
			t.Fatalf("timely recv: %v %q", err, m.Payload)
		}
		start := time.Now()
		_, err = eps[1].RecvTimeout(0, KindUpdate, 4, 50*time.Millisecond)
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("missing message returned %v, want *TimeoutError", err)
		}
		if te.Node != 1 || te.From != 0 || te.Kind != KindUpdate || te.Tag != 4 {
			t.Fatalf("timeout error context = %+v", te)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("timeout took %v", waited)
		}
	})
}

// TestDialBudgetConfigurable verifies the WithDialBudget option: dialing
// a cluster whose peer never listens must fail within the small budget
// rather than the 30s default.
func TestDialBudgetConfigurable(t *testing.T) {
	ln := mustListen(t)
	defer ln.Close()
	dead := mustListen(t)
	addrs := []string{dead.Addr().String(), ln.Addr().String()}
	dead.Close() // node 1 will dial a vacated port
	start := time.Now()
	_, err := NewTCPEndpoint(1, ln, addrs, WithDialBudget(150*time.Millisecond))
	if err == nil {
		t.Fatal("dial to dead peer succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("dial gave up after %v, want ~150ms budget", waited)
	}
}
