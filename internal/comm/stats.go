package comm

import (
	"sync/atomic"
	"time"
)

// Stats counts traffic by kind and by peer link. Sent counters are
// updated by Send, received counters by the transport's delivery path,
// and queue-delay by the simulated link model (zero on real
// transports). All methods are safe for concurrent use.
type Stats struct {
	sentMsgs  [numKinds]atomic.Int64
	sentBytes [numKinds]atomic.Int64
	recvMsgs  [numKinds]atomic.Int64
	recvBytes [numKinds]atomic.Int64

	// peers tracks per-link totals (all kinds), indexed by peer node.
	// Sized once at endpoint creation; empty when the transport never
	// called initPeers (e.g. a Stats zero value in tests).
	peers []peerCounters

	// queueDelayNs accumulates time the simulated link model kept this
	// endpoint's outgoing messages queued behind earlier transfers
	// (NIC contention) before their own transfer began.
	queueDelayNs atomic.Int64
}

type peerCounters struct {
	sentMsgs, sentBytes, recvMsgs, recvBytes atomic.Int64
}

// initPeers sizes the per-link counters for a cluster of n nodes.
func (s *Stats) initPeers(n int) { s.peers = make([]peerCounters, n) }

func (s *Stats) countSend(to NodeID, kind Kind, payloadLen int) {
	n := int64(payloadLen) + headerBytes
	s.sentMsgs[kind].Add(1)
	s.sentBytes[kind].Add(n)
	if int(to) >= 0 && int(to) < len(s.peers) {
		s.peers[to].sentMsgs.Add(1)
		s.peers[to].sentBytes.Add(n)
	}
}

func (s *Stats) countRecv(from NodeID, kind Kind, payloadLen int) {
	n := int64(payloadLen) + headerBytes
	s.recvMsgs[kind].Add(1)
	s.recvBytes[kind].Add(n)
	if int(from) >= 0 && int(from) < len(s.peers) {
		s.peers[from].recvMsgs.Add(1)
		s.peers[from].recvBytes.Add(n)
	}
}

func (s *Stats) countQueueDelay(d time.Duration) {
	if d > 0 {
		s.queueDelayNs.Add(int64(d))
	}
}

// SentBytes returns the bytes sent of the given kind, including per-message
// header overhead.
func (s *Stats) SentBytes(kind Kind) int64 { return s.sentBytes[kind].Load() }

// SentMessages returns the number of messages sent of the given kind.
func (s *Stats) SentMessages(kind Kind) int64 { return s.sentMsgs[kind].Load() }

// ReceivedBytes returns the bytes received of the given kind.
func (s *Stats) ReceivedBytes(kind Kind) int64 { return s.recvBytes[kind].Load() }

// ReceivedMessages returns the number of messages received of the given kind.
func (s *Stats) ReceivedMessages(kind Kind) int64 { return s.recvMsgs[kind].Load() }

// TotalSentBytes returns bytes sent across all kinds.
func (s *Stats) TotalSentBytes() int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		t += s.SentBytes(k)
	}
	return t
}

// QueueDelay returns the accumulated simulated-link queueing delay of
// this endpoint's sends (always zero on the TCP transport).
func (s *Stats) QueueDelay() time.Duration {
	return time.Duration(s.queueDelayNs.Load())
}

// NumPeers returns the cluster size the per-link counters were sized
// for (0 when the transport did not initialize them).
func (s *Stats) NumPeers() int { return len(s.peers) }

// LinkSnapshot is an immutable copy of one peer link's counters, summed
// over all kinds and including per-message header overhead.
type LinkSnapshot struct {
	SentMessages, SentBytes         int64
	ReceivedMessages, ReceivedBytes int64
}

// Peer returns the counters for the link to/from the given peer; zero
// for out-of-range peers.
func (s *Stats) Peer(peer NodeID) LinkSnapshot {
	if int(peer) < 0 || int(peer) >= len(s.peers) {
		return LinkSnapshot{}
	}
	p := &s.peers[peer]
	return LinkSnapshot{
		SentMessages:     p.sentMsgs.Load(),
		SentBytes:        p.sentBytes.Load(),
		ReceivedMessages: p.recvMsgs.Load(),
		ReceivedBytes:    p.recvBytes.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	for k := Kind(0); k < numKinds; k++ {
		s.sentMsgs[k].Store(0)
		s.sentBytes[k].Store(0)
		s.recvMsgs[k].Store(0)
		s.recvBytes[k].Store(0)
	}
	for i := range s.peers {
		s.peers[i].sentMsgs.Store(0)
		s.peers[i].sentBytes.Store(0)
		s.peers[i].recvMsgs.Store(0)
		s.peers[i].recvBytes.Store(0)
	}
	s.queueDelayNs.Store(0)
}
