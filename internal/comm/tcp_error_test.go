package comm

import (
	"encoding/binary"
	"testing"
	"time"
)

// rawWrite bypasses Send and writes bytes straight onto e's connection
// to peer, simulating a peer that violates the framing protocol.
func rawWrite(t *testing.T, e *TCPEndpoint, peer NodeID, b []byte) {
	t.Helper()
	conn := e.conns[peer]
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if _, err := conn.c.Write(b); err != nil {
		t.Fatal(err)
	}
}

func recvWithTimeout(t *testing.T, e *TCPEndpoint, from NodeID, kind Kind, tag int32) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := e.Recv(from, kind, tag)
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after peer failure")
		return nil
	}
}

// TestTCPPeerCloseMidHeader kills a connection after a partial
// length-prefix header: the receiver's pending Recv must error out
// rather than hang.
func TestTCPPeerCloseMidHeader(t *testing.T) {
	eps, err := NewTCPClusterLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()

	// 5 of the 13 header bytes, then the peer dies.
	rawWrite(t, eps[1], 0, []byte{1, 0, 0, 0, 0})
	eps[1].conns[0].c.Close()

	if err := recvWithTimeout(t, eps[0], 1, KindUpdate, 0); err == nil {
		t.Fatal("Recv succeeded after mid-header close")
	}
}

// TestTCPPeerCloseMidPayload sends a header whose length prefix
// promises more payload than ever arrives.
func TestTCPPeerCloseMidPayload(t *testing.T) {
	eps, err := NewTCPClusterLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()

	var frame [headerBytes + 10]byte
	binary.LittleEndian.PutUint32(frame[0:], 1)   // from
	frame[4] = byte(KindUpdate)                   // kind
	binary.LittleEndian.PutUint32(frame[5:], 7)   // tag
	binary.LittleEndian.PutUint32(frame[9:], 100) // promised length
	rawWrite(t, eps[1], 0, frame[:])              // only 10 payload bytes follow
	eps[1].conns[0].c.Close()

	if err := recvWithTimeout(t, eps[0], 1, KindUpdate, 7); err == nil {
		t.Fatal("Recv succeeded after short payload")
	}
}

// TestTCPMessagesBeforeFailureStayReadable checks that frames delivered
// before a peer failure drain normally from the closed queues.
func TestTCPMessagesBeforeFailureStayReadable(t *testing.T) {
	eps, err := NewTCPClusterLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()

	if err := eps[1].SendBufs(0, KindControl, 3, Buffers{[]byte("ok")}); err != nil {
		t.Fatal(err)
	}
	// Wait for delivery, then kill the connection mid-nothing (clean
	// close — still fatal to the SPMD protocol).
	deadline := time.Now().Add(2 * time.Second)
	for eps[0].Stats().ReceivedMessages(KindControl) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	eps[1].conns[0].c.Close()

	m, err := eps[0].Recv(1, KindControl, 3)
	if err != nil {
		t.Fatalf("queued message lost: %v", err)
	}
	if string(m.Payload) != "ok" {
		t.Fatalf("payload %q", m.Payload)
	}
	if err := recvWithTimeout(t, eps[0], 1, KindControl, 4); err == nil {
		t.Fatal("Recv of never-sent message succeeded")
	}
}

// TestPerLinkAccounting checks the per-peer counters on both
// transports agree with the per-kind totals.
func TestPerLinkAccounting(t *testing.T) {
	c := NewMemCluster(3)
	defer c.Close()
	payload := make([]byte, 50)
	if err := c.Endpoint(0).SendBufs(1, KindUpdate, 0, Buffers{payload}); err != nil {
		t.Fatal(err)
	}
	if err := c.Endpoint(0).SendBufs(2, KindDependency, 0, Buffers{make([]byte, 20)}); err != nil {
		t.Fatal(err)
	}
	s := c.Endpoint(0).Stats()
	if got := s.Peer(1).SentBytes; got != 50+headerBytes {
		t.Fatalf("link 0→1 sent %d", got)
	}
	if got := s.Peer(2).SentBytes; got != 20+headerBytes {
		t.Fatalf("link 0→2 sent %d", got)
	}
	if s.numPeers() != 3 {
		t.Fatalf("numPeers %d", s.numPeers())
	}
	var perLink int64
	for p := NodeID(0); p < 3; p++ {
		perLink += s.Peer(p).SentBytes
	}
	if perLink != s.totalSentBytes() {
		t.Fatalf("per-link sum %d != total %d", perLink, s.totalSentBytes())
	}
	if _, err := c.Endpoint(1).Recv(0, KindUpdate, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Endpoint(1).Stats().Peer(0).ReceivedBytes; got != 50+headerBytes {
		t.Fatalf("link 1←0 received %d", got)
	}
}

// TestLinkQueueDelayAccounted checks that a bandwidth-bound simulated
// link records queueing delay for messages serialized behind earlier
// ones.
func TestLinkQueueDelayAccounted(t *testing.T) {
	// 2 × 50KB at 10MB/s: the second message queues ~5ms behind the
	// first.
	c := NewMemClusterWithLink(2, &LinkModel{BytesPerSecond: 10e6})
	defer c.Close()
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
	if got := c.Endpoint(0).Stats().QueueDelay(); got < 2*time.Millisecond {
		t.Fatalf("queue delay %v, want ≥ ~5ms", got)
	}
}
