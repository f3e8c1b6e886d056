package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// MemCluster is an in-process cluster of N endpoints connected by
// channels. It is the default substrate for experiments: it preserves the
// paper's message protocol and byte accounting exactly while running the
// "machines" as goroutine groups on one host. With a LinkModel attached,
// message delivery additionally pays simulated interconnect latency and
// bandwidth, making wall-clock comparisons communication-aware.
type MemCluster struct {
	endpoints []*memEndpoint
	link      *LinkModel

	nics   *nics
	linkMu sync.Mutex
	links  map[[2]NodeID]*linkWorker
	closed bool
}

// NewMemCluster creates a cluster with n endpoints and instant delivery.
func NewMemCluster(n int) *MemCluster { return NewMemClusterWithLink(n, nil) }

// NewMemClusterWithLink creates a cluster whose deliveries follow the
// link model. A nil model, or one that costs nothing (no latency and
// infinite bandwidth), is instant delivery: the sender hands the message
// to the receiver's inbox itself, with no link worker in between.
func NewMemClusterWithLink(n int, link *LinkModel) *MemCluster {
	if n <= 0 {
		panic(fmt.Sprintf("comm: cluster size %d", n))
	}
	if link != nil && link.Latency <= 0 && link.BytesPerSecond <= 0 {
		link = nil
	}
	c := &MemCluster{
		endpoints: make([]*memEndpoint, n),
		link:      link,
		links:     make(map[[2]NodeID]*linkWorker),
		nics:      newNICs(n),
	}
	for i := range c.endpoints {
		c.endpoints[i] = &memEndpoint{
			demux: newDemux(NodeID(i), n),
			id:    NodeID(i),
			peers: c,
		}
		c.endpoints[i].stats.initPeers(n)
	}
	return c
}

// Endpoint returns node i's endpoint.
func (c *MemCluster) Endpoint(i NodeID) Endpoint { return c.endpoints[i] }

// Endpoints returns all endpoints in ID order.
func (c *MemCluster) Endpoints() []Endpoint {
	out := make([]Endpoint, len(c.endpoints))
	for i, e := range c.endpoints {
		out[i] = e
	}
	return out
}

// Close shuts the cluster down. It is safe to call while Sends and
// Recvs are in flight — poisoning a failed run does exactly that to
// unblock the survivors — in which case undelivered messages are
// abandoned and pending receives return a *ClosedError.
func (c *MemCluster) Close() error {
	c.linkMu.Lock()
	if !c.closed {
		c.closed = true
		for _, lw := range c.links {
			close(lw.ch)
		}
	}
	c.linkMu.Unlock()
	for _, e := range c.endpoints {
		e.Close()
	}
	return nil
}

// linkWorker serializes one ordered pair's deliveries: messages arrive in
// send order, claim the two NICs in turn, wait out the transfer plus
// latency, and are delivered FIFO.
type linkWorker struct {
	ch      chan delayedMsg
	cluster *MemCluster
	from    NodeID
	to      NodeID
}

type delayedMsg struct {
	dst  *memEndpoint
	m    Message
	sent time.Time
}

func (c *MemCluster) linkFor(from, to NodeID) *linkWorker {
	key := [2]NodeID{from, to}
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if c.closed {
		return nil
	}
	lw, ok := c.links[key]
	if !ok {
		lw = &linkWorker{ch: make(chan delayedMsg, 4096), cluster: c, from: from, to: to}
		c.links[key] = lw
		go lw.run(c.link)
	}
	return lw
}

func (lw *linkWorker) run(model *LinkModel) {
	src := lw.cluster.endpoints[lw.from]
	for d := range lw.ch {
		start, done := lw.cluster.nics.claim(model, int(lw.from), int(lw.to), len(d.m.Payload), d.sent)
		// Time spent queued behind earlier transfers before this
		// message's own serialization began — the NIC-contention
		// component of communication cost.
		src.stats.countQueueDelay(start.Sub(d.sent))
		waitUntil(done.Add(model.Latency))
		d.dst.deliverSafe(d.m)
	}
}

type memEndpoint struct {
	*demux    // the inbox: Recv and RecvTimeout
	id        NodeID
	peers     *MemCluster
	stats     Stats
	closeOnce sync.Once
}

func (e *memEndpoint) ID() NodeID { return e.id }

func (e *memEndpoint) N() int { return len(e.peers.endpoints) }

// SendBufs implements Endpoint: ownership of every buffer passes to the
// transport. A single-buffer frame is handed to the receiver by
// reference — the slab sees it again when the receiver Releases; a
// multi-buffer frame is concatenated into one slab buffer and the
// sources are recycled immediately, which keeps the receive side
// contiguous without a garbage-collected allocation.
func (e *memEndpoint) SendBufs(to NodeID, kind Kind, tag int32, bufs Buffers) error {
	var payload []byte
	if len(bufs) == 1 {
		payload = bufs[0]
	} else if total := bufs.TotalLen(); total > 0 {
		payload = bufpool.Get(total)
		off := 0
		for _, b := range bufs {
			off += copy(payload[off:], b)
		}
		bufs.release()
	}
	return e.send(to, Message{From: e.id, Kind: kind, Tag: tag, Payload: payload})
}

// send is the shared delivery path: instant hand-off, or the simulated
// link when one is attached.
func (e *memEndpoint) send(to NodeID, m Message) error {
	if int(to) < 0 || int(to) >= e.N() {
		return fmt.Errorf("comm: send to node %d of %d", to, e.N())
	}
	e.stats.countSend(to, m.Kind, len(m.Payload))
	dst := e.peers.endpoints[to]
	if e.peers.link == nil {
		dst.deliverSafe(m)
		return nil
	}
	lw := e.peers.linkFor(e.id, to)
	if lw == nil {
		return fmt.Errorf("comm: cluster closed")
	}
	lw.ch <- delayedMsg{dst: dst, m: m, sent: time.Now()}
	return nil
}

// deliverSafe delivers a (possibly delayed) message; if the cluster
// closed while the simulated delivery was in flight, the demux drops it.
func (e *memEndpoint) deliverSafe(m Message) {
	e.stats.countRecv(m.From, m.Kind, len(m.Payload))
	e.demux.deliver(m)
}

func (e *memEndpoint) Stats() *Stats { return &e.stats }

func (e *memEndpoint) Close() error {
	e.closeOnce.Do(e.demux.close)
	return nil
}
