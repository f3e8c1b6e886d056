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

// TotalLen returns the summed length of all elements.
func (b Buffers) TotalLen() int {
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

// StepObserver is the optional superstep-progress capability: the engine
// announces each edge-processing pass so step-keyed fault rules (crash at
// superstep k, partition windows) fire deterministically. Transports
// without fault injection ignore it.
type StepObserver interface {
	ObserveSuperstep(step int)
}

// ObserveSuperstep forwards a superstep announcement to e when it cares.
func ObserveSuperstep(e Endpoint, step int) {
	if so, ok := e.(StepObserver); ok {
		so.ObserveSuperstep(step)
	}
}

// demux routes incoming messages to per-(from, kind) queues so that
// concurrent receivers of disjoint streams never contend, mirroring the
// paper's separation of worker (update) and coordinator (dependency)
// threads.
type demux struct {
	self   NodeID // owning endpoint, for error context
	n      int
	mu     sync.Mutex
	queues map[demuxKey]chan Message
	done   chan struct{} // closed on shutdown; the data queues never are
	closed bool
}

type demuxKey struct {
	from NodeID
	kind Kind
}

func newDemux(self NodeID, n int) *demux {
	return &demux{
		self:   self,
		n:      n,
		queues: make(map[demuxKey]chan Message),
		done:   make(chan struct{}),
	}
}

// queueCap bounds each (from, kind) stream. The engine protocol keeps at
// most a handful of in-flight messages per stream (double buffering sends
// a few group frames ahead); 1024 gives slack without unbounded memory.
const queueCap = 1024

func (d *demux) queue(from NodeID, kind Kind) chan Message {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := demuxKey{from, kind}
	q, ok := d.queues[key]
	if !ok {
		q = make(chan Message, queueCap)
		d.queues[key] = q
	}
	return q
}

// deliver enqueues m, blocking under backpressure until the receiver
// drains or the endpoint shuts down. Shutdown drops the message: a
// poisoned run closes endpoints precisely to unblock peers mid-Send, so
// deliveries racing the close are abandoned, not delivered.
func (d *demux) deliver(m Message) {
	select {
	case d.queue(m.From, m.Kind) <- m:
	case <-d.done:
	}
}

// RecvTimeout implements Endpoint for both built-in transports, which
// embed the demux (the fault wrapper above them funnels through it too):
// the leased-receive semantics — tag assertion, closed-inbox drain,
// timeout classification, payload lease intact as delivered — are
// defined here and nowhere else. A non-positive timeout blocks
// indefinitely.
func (d *demux) RecvTimeout(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error) {
	q := d.queue(from, kind)
	// Fast path: a message is already queued (also the only path a
	// zero-timeout caller should pay a timer for — it never does).
	select {
	case m := <-q:
		return d.checkTag(m, from, kind, tag)
	default:
	}
	var expired <-chan time.Time // never fires without a deadline
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case m := <-q:
		return d.checkTag(m, from, kind, tag)
	case <-d.done:
		return d.drain(q, from, kind, tag)
	case <-expired:
		return Message{}, &TimeoutError{Node: d.self, From: from, Kind: kind, Tag: tag, Timeout: timeout}
	}
}

// drain gives messages enqueued before shutdown one last chance to be
// received — a closed demux refuses new deliveries but does not discard
// what already arrived.
func (d *demux) drain(q chan Message, from NodeID, kind Kind, tag int32) (Message, error) {
	select {
	case m := <-q:
		return d.checkTag(m, from, kind, tag)
	default:
		return Message{}, &ClosedError{Node: d.self, From: from, Kind: kind}
	}
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

func (d *demux) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	close(d.done)
}
