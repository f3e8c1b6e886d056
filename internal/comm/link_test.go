package comm

import (
	"sync"
	"testing"
	"time"
)

func TestLinkedClusterDelaysDelivery(t *testing.T) {
	link := &LinkModel{Latency: 2 * time.Millisecond}
	c := NewMemClusterWithLink(2, link)
	defer c.Close()
	start := time.Now()
	if err := c.Endpoint(0).SendBufs(1, KindUpdate, 0, Buffers{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Endpoint(1).Recv(0, KindUpdate, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < link.Latency {
		t.Fatalf("delivery took %v, want at least %v", elapsed, link.Latency)
	}
}

func TestLinkedClusterBandwidthSerializes(t *testing.T) {
	// 2 messages × 50KB at 10MB/s through the same NIC pair: ≥10ms.
	link := &LinkModel{BytesPerSecond: 10e6}
	c := NewMemClusterWithLink(2, link)
	defer c.Close()
	start := time.Now()
	for i := int32(0); i < 2; i++ {
		if err := c.Endpoint(0).SendBufs(1, KindUpdate, i, Buffers{make([]byte, 50_000)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 2; i++ {
		if _, err := c.Endpoint(1).Recv(0, KindUpdate, i); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("2×50KB at 10MB/s took %v, want ≥ ~10ms", elapsed)
	}
}

func TestLinkedClusterPreservesFIFO(t *testing.T) {
	link := &LinkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 100e6}
	c := NewMemClusterWithLink(2, link)
	defer c.Close()
	const k = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(0); i < k; i++ {
			if err := c.Endpoint(0).SendBufs(1, KindUpdate, i, Buffers{[]byte{byte(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := int32(0); i < k; i++ {
		// Recv asserts the tag, so any reordering panics.
		m, err := c.Endpoint(1).Recv(0, KindUpdate, i)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d carries %d", i, m.Payload[0])
		}
	}
	wg.Wait()
}

func TestLinkedClusterCountsBytesIdentically(t *testing.T) {
	// The link model must not change accounting, only timing.
	for _, link := range []*LinkModel{nil, {Latency: time.Millisecond}} {
		c := NewMemClusterWithLink(2, link)
		payload := make([]byte, 123)
		if err := c.Endpoint(0).SendBufs(1, KindDependency, 0, Buffers{payload}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Endpoint(1).Recv(0, KindDependency, 0); err != nil {
			t.Fatal(err)
		}
		want := int64(123 + headerBytes)
		if got := c.Endpoint(0).Stats().SentBytes(KindDependency); got != want {
			t.Fatalf("link=%v: sent %d, want %d", link, got, want)
		}
		if got := c.Endpoint(1).Stats().ReceivedBytes(KindDependency); got != want {
			t.Fatalf("link=%v: received %d, want %d", link, got, want)
		}
		c.Close()
	}
}

func TestLinkedClusterCollectives(t *testing.T) {
	link := &LinkModel{Latency: 50 * time.Microsecond, BytesPerSecond: 50e6}
	c := NewMemClusterWithLink(3, link)
	defer c.Close()
	var wg sync.WaitGroup
	results := make([]int64, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := AllReduceInt64(c.Endpoint(NodeID(i)), int64(i+1), 0,
				func(a, b int64) int64 { return a + b })
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != 6 {
			t.Fatalf("node %d: %d, want 6", i, r)
		}
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	c := NewMemClusterWithLink(2, &LinkModel{Latency: time.Millisecond})
	c.Close()
	if err := c.Endpoint(0).SendBufs(1, KindUpdate, 0, nil); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestTransferTime(t *testing.T) {
	l := &LinkModel{BytesPerSecond: 1e6}
	if got := l.transferTime(1_000_000); got != time.Second {
		t.Fatalf("1MB at 1MB/s = %v", got)
	}
	inf := &LinkModel{}
	if got := inf.transferTime(1 << 30); got != 0 {
		t.Fatalf("infinite bandwidth transfer = %v", got)
	}
}

// TestFreeLinkModelIsInstant: a model that costs nothing — what the
// benchmark and the servers pass as "instant" — behaves as a nil link:
// per-pair order, byte and message counts equal a nil-link cluster's,
// delivery completes inside Send, and no link worker is started.
func TestFreeLinkModelIsInstant(t *testing.T) {
	const k = 100
	type counts struct{ sentB, recvB, sentM int64 }
	run := func(link *LinkModel) (got [numKinds]counts) {
		c := NewMemClusterWithLink(3, link)
		defer c.Close()
		for i := int32(0); i < k; i++ {
			kind := Kind(i % int32(numKinds))
			if err := c.Endpoint(0).SendBufs(1, kind, i, Buffers{[]byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
			if err := c.Endpoint(0).SendBufs(2, kind, i, Buffers{[]byte{byte(i)}, []byte{1, 2}}); err != nil {
				t.Fatal(err)
			}
		}
		// Instant delivery happened inside Send: everything is already
		// received as far as the accounting goes, and no worker exists.
		if n := len(c.links); n != 0 {
			t.Fatalf("link=%+v: %d link workers started", link, n)
		}
		for i := int32(0); i < k; i++ {
			kind := Kind(i % int32(numKinds))
			m, err := c.Endpoint(1).Recv(0, kind, i)
			if err != nil || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
				t.Fatalf("link=%+v: message %d to node 1: %v %v", link, i, m.Payload, err)
			}
			if m, err = c.Endpoint(2).Recv(0, kind, i); err != nil || len(m.Payload) != 3 || m.Payload[0] != byte(i) {
				t.Fatalf("link=%+v: frame %d to node 2: %v %v", link, i, m.Payload, err)
			}
			m.Release()
		}
		for kind := Kind(0); kind < numKinds; kind++ {
			got[kind] = counts{
				c.Endpoint(0).Stats().SentBytes(kind),
				c.Endpoint(1).Stats().ReceivedBytes(kind) + c.Endpoint(2).Stats().ReceivedBytes(kind),
				c.Endpoint(0).Stats().SentMessages(kind),
			}
		}
		if d := c.Endpoint(0).Stats().QueueDelay(); d != 0 {
			t.Fatalf("link=%+v: queue delay %v on an instant cluster", link, d)
		}
		return got
	}
	want := run(nil)
	if want[KindUpdate].sentM == 0 || want[KindUpdate].sentB != want[KindUpdate].recvB {
		t.Fatalf("nil-link reference looks wrong: %+v", want)
	}
	for _, link := range []*LinkModel{{}, {Latency: -time.Second, BytesPerSecond: -1}} {
		if got := run(link); got != want {
			t.Fatalf("link=%+v: counts %+v, nil link %+v", link, got, want)
		}
	}
}
