// Package comm is the communication substrate of SympleGraph-Go. It plays
// the role MPI plays in the paper's implementation (§6): point-to-point
// messaging between the machines of a cluster, simple collectives
// (barrier, all-reduce), and per-kind byte accounting.
//
// Two transports are provided. MemCluster connects N simulated machines in
// one process through channels — the default for experiments, benchmarks
// and tests. TCPCluster connects endpoints over real sockets (loopback or
// LAN) with length-prefixed frames. Both serialize every message to bytes,
// so communication-volume measurements (Table 6 of the paper) are
// identical across transports.
//
// Messages carry a Kind so that the paper's two traffic classes — update
// communication (mirror→master partial aggregates) and dependency
// communication (the circulating skip bitmaps SympleGraph adds) — are
// tallied separately, plus a Control kind for collectives.
package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// NodeID identifies a machine within a cluster, in [0, N).
type NodeID int

// Kind classifies message traffic for accounting and demultiplexing.
type Kind uint8

const (
	// KindUpdate is mirror→master update communication: the partial
	// signal results existing frameworks already send.
	KindUpdate Kind = iota
	// KindDependency is the dependency communication SympleGraph adds:
	// skip bitmaps and data-dependency payloads circulating the ring.
	KindDependency
	// KindControl is framework-internal traffic: barriers, reductions,
	// frontier exchanges and termination votes.
	KindControl
	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindDependency:
		return "dependency"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is a unit of communication. Tag disambiguates messages of the
// same kind between the same pair of nodes (the engine uses step and
// iteration numbers); a mismatch indicates a protocol bug and surfaces as
// a *ProtocolError at the receiver.
//
// A received Message leases its payload: every delivery is a buffer the
// sender handed off (SendBufs) or the transport read into the payload
// slab (internal/bufpool), never memory anyone else still holds. Once
// the receiver has consumed (or copied out) the bytes it needs, Release
// returns the backing array to the slab for the next superstep's
// frames; after calling it the payload must not be touched again — the
// sgvet bufown analyzer polices that invariant. A receiver that keeps
// the payload instead simply never Releases and the garbage collector
// takes it.
type Message struct {
	From    NodeID
	Kind    Kind
	Tag     int32
	Payload []byte
}

// Release returns the payload to the slab and poisons the message
// against reuse. Idempotent; safe on the zero Message.
func (m *Message) Release() {
	bufpool.Put(m.Payload)
	m.Payload = nil
}

// Buffers is a vectored message payload: the frame on the wire (and the
// payload the receiver sees) is the concatenation of the elements.
// Handing a Buffers to SendBufs passes ownership of every element to
// the transport — the caller must not retain, reuse or mutate them
// afterwards (bufown lints this); the transport recycles them through
// internal/bufpool once the frame is delivered or abandoned. The vector
// itself stays the caller's, to refill once SendBufs returns. Elements
// may be empty; a nil Buffers is an empty frame.
type Buffers [][]byte

// totalLen returns the summed length of all elements.
func (b Buffers) totalLen() int {
	n := 0
	for _, buf := range b {
		n += len(buf)
	}
	return n
}

// release returns every element to the slab — the transport-side
// disposal for frames that were copied or dropped rather than handed
// off. Elements with foreign capacities are left to the GC by the pool.
func (b Buffers) release() {
	for _, buf := range b {
		bufpool.Put(buf)
	}
}

// headerBytes is the accounted per-message overhead: from(4) kind(1)
// tag(4) length(4), matching the TCP frame encoding so both transports
// report identical volumes.
const headerBytes = 13

// Endpoint is one machine's connection to the cluster.
//
// SendBufs is the one send: a vectored frame whose buffers the
// transport takes ownership of — written with writev (no intermediate
// concatenation) on TCP, handed off by reference on the memory
// transport — and recycles through the payload slab after delivery. A
// sender with one payload for several peers gives each its own copy.
//
// Sends may block if the destination's inbox is full (memory transport)
// or the socket buffer is full (TCP); the engine's communication
// protocol is deadlock-free because every send has a matching posted
// receive within the same superstep. Recv blocks until a message with
// the given source and kind arrives, and returns a *ProtocolError if
// its tag does not match — tags are a protocol assertion, not a
// selection mechanism — or a *ClosedError if the endpoint shut down
// while the receive was pending. RecvTimeout is Recv with a deadline:
// it fails with a *TimeoutError once timeout has passed without the
// message (a non-positive timeout blocks like Recv), which is how the
// engine turns an indefinitely stalled superstep into a structured
// error. Received messages are leases: see Message.Release.
//
// Concurrent Recv calls are safe as long as no two goroutines receive the
// same (from, kind) pair concurrently, which the engine guarantees by
// dedicating dependency traffic to the coordinator goroutine (§6 of the
// paper: "a dependency communication coordinator thread").
type Endpoint interface {
	// ID returns this endpoint's node ID.
	ID() NodeID
	// N returns the cluster size.
	N() int
	// SendBufs delivers the concatenation of bufs to node `to`,
	// transferring ownership of every buffer to the transport.
	SendBufs(to NodeID, kind Kind, tag int32, bufs Buffers) error
	// Recv returns the next message from `from` of kind `kind`,
	// blocking as needed.
	Recv(from NodeID, kind Kind, tag int32) (Message, error)
	// RecvTimeout is Recv that gives up after timeout (when positive).
	RecvTimeout(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error)
	// Stats returns this endpoint's traffic counters.
	Stats() *Stats
	// Close releases transport resources. The endpoint is unusable
	// afterwards.
	Close() error
}

// stepObserver is the optional superstep-progress capability: the engine
// announces each edge-processing pass so step-keyed fault rules (crash at
// superstep k, partition windows) fire deterministically. Transports
// without fault injection ignore it.
type stepObserver interface {
	ObserveSuperstep(step int)
}

// ObserveSuperstep forwards a superstep announcement to e when it cares.
func ObserveSuperstep(e Endpoint, step int) {
	if so, ok := e.(stepObserver); ok {
		so.ObserveSuperstep(step)
	}
}

// demux routes incoming messages to per-(from, kind) streams so that
// concurrent receivers of disjoint streams never contend, mirroring the
// paper's separation of worker (update) and coordinator (dependency)
// threads. The streams are one fixed array, laid out in newDemux and
// indexed by (from, kind): routing a message takes no demux-wide lock
// and no map lookup.
type demux struct {
	self    NodeID // owning endpoint, for error context
	n       int
	streams []stream // [from*numKinds + kind]

	done      chan struct{} // closed on shutdown; the streams never are
	closeOnce sync.Once
}

func newDemux(self NodeID, n int) *demux {
	return &demux{
		self:    self,
		n:       n,
		streams: make([]stream, n*int(numKinds)),
		done:    make(chan struct{}),
	}
}

// queueCap bounds each (from, kind) stream's backlog. The engine
// protocol keeps at most a handful of in-flight messages per stream
// (double buffering sends a few group frames ahead); 1024 gives slack
// before a sender blocks. A stream's ring is sized by its backlog, not
// by this bound: it starts empty, doubles when full, and is dropped once
// a backlog of more than minRing messages has drained, so a stream holds
// no ring before its first message and minRing slots at rest.
const (
	queueCap = 1024
	minRing  = 8
)

// stream is one (from, kind) inbox: a FIFO ring that grows with its
// backlog up to queueCap messages. Its two wake-up channels are made on
// the first wait that needs one and hold at most one pending signal;
// a woken waiter re-checks the ring, so a stale signal costs one loop.
type stream struct {
	mu    sync.Mutex
	ring  []Message // len is 0 or a power of two
	head  int
	n     int
	ready chan struct{} // a message arrived
	space chan struct{} // a message left a full stream
}

// stream returns the (from, kind) stream, or nil outside the cluster's
// node and kind ranges.
func (d *demux) stream(from NodeID, kind Kind) *stream {
	if from < 0 || int(from) >= d.n || kind >= numKinds {
		return nil
	}
	return &d.streams[int(from)*int(numKinds)+int(kind)]
}

// wake posts one pending signal on c unless it has one; a nil c has no
// waiter to wake.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// push enqueues m unless the backlog is at queueCap; when it is, it
// returns the channel a dequeue signals instead.
func (s *stream) push(m Message) (space chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == queueCap {
		if s.space == nil {
			s.space = make(chan struct{}, 1)
		}
		return s.space
	}
	if s.n == len(s.ring) {
		ring := make([]Message, max(minRing, 2*len(s.ring)))
		k := copy(ring, s.ring[s.head:])
		copy(ring[k:], s.ring[:s.head])
		s.ring, s.head = ring, 0
	}
	s.ring[(s.head+s.n)&(len(s.ring)-1)] = m
	s.n++
	wake(s.ready)
	if s.n < queueCap {
		wake(s.space) // pass room on to any other blocked sender
	}
	return nil
}

// pop dequeues the oldest message; when the stream is empty it returns
// the channel an enqueue signals instead.
func (s *stream) pop() (m Message, ok bool, ready chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		if s.ready == nil {
			s.ready = make(chan struct{}, 1)
		}
		return Message{}, false, s.ready
	}
	m = s.ring[s.head]
	s.ring[s.head] = Message{} // the payload is the receiver's now
	s.head = (s.head + 1) & (len(s.ring) - 1)
	s.n--
	if s.n == 0 && len(s.ring) > minRing {
		s.ring, s.head = nil, 0 // the backlog drained: give its ring back
	}
	wake(s.space)
	return m, true, nil
}

// deliver enqueues m, blocking under backpressure until the receiver
// drains or the endpoint shuts down. Shutdown drops the message: a
// poisoned run closes endpoints precisely to unblock peers mid-Send, so
// deliveries racing the close are abandoned, not delivered. So is a
// message outside the stream ranges, which no receive can name.
func (d *demux) deliver(m Message) {
	for s := d.stream(m.From, m.Kind); s != nil; {
		select {
		case <-d.done:
			return
		default:
		}
		space := s.push(m)
		if space == nil {
			return
		}
		select {
		case <-space:
		case <-d.done:
		}
	}
}

// RecvTimeout implements Endpoint for both built-in transports, which
// embed the demux (the fault wrapper above them funnels through it too):
// the leased-receive semantics — tag assertion, closed-inbox drain,
// timeout classification, payload lease intact as delivered — are
// defined here and nowhere else. A non-positive timeout blocks
// indefinitely.
func (d *demux) RecvTimeout(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error) {
	s := d.stream(from, kind)
	if s == nil {
		return Message{}, fmt.Errorf("comm: node %d cannot receive kind %v from node %d of %d", d.self, kind, from, d.n)
	}
	var expired <-chan time.Time // never fires without a deadline
	for {
		// A message already queued is taken at once: only a receive that
		// has to wait pays for a timer.
		m, ok, ready := s.pop()
		if ok {
			return d.checkTag(m, from, kind, tag)
		}
		if expired == nil && timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-ready:
		case <-d.done:
			return d.drain(s, from, kind, tag)
		case <-expired:
			return Message{}, &TimeoutError{Node: d.self, From: from, Kind: kind, Tag: tag, Timeout: timeout}
		}
	}
}

// drain gives messages enqueued before shutdown one last chance to be
// received — a closed demux refuses new deliveries but does not discard
// what already arrived.
func (d *demux) drain(s *stream, from NodeID, kind Kind, tag int32) (Message, error) {
	if m, ok, _ := s.pop(); ok {
		return d.checkTag(m, from, kind, tag)
	}
	return Message{}, &ClosedError{Node: d.self, From: from, Kind: kind}
}

// Recv implements Endpoint.
func (d *demux) Recv(from NodeID, kind Kind, tag int32) (Message, error) {
	return d.RecvTimeout(from, kind, tag, 0)
}

func (d *demux) checkTag(m Message, from NodeID, kind Kind, tag int32) (Message, error) {
	if m.Tag != tag {
		return Message{}, &ProtocolError{Node: d.self, From: from, Kind: kind, WantTag: tag, GotTag: m.Tag}
	}
	return m, nil
}

func (d *demux) close() { d.closeOnce.Do(func() { close(d.done) }) }
