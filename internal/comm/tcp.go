package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// TCPEndpoint connects one node to a cluster over TCP with a full mesh of
// connections, replacing the paper's MPI/InfiniBand layer. Frames are
// length-prefixed: from(4) kind(1) tag(4) len(4) payload, so the measured
// bytes match the accounted headerBytes exactly.
//
// Connection establishment is symmetric-free: node i dials every node
// j < i and accepts connections from every j > i; the dialer announces its
// ID in a 4-byte hello. Dials retry until the peer's listener is up.
type TCPEndpoint struct {
	*demux // the inbox: Recv and RecvTimeout
	id     NodeID
	n      int
	ln     net.Listener
	conns  []*tcpConn
	stats  Stats

	closeOnce sync.Once
	closeErr  error
}

type tcpConn struct {
	mu sync.Mutex // serializes writers; guards hdr and vec
	c  net.Conn

	// Per-connection write scratch: the frame header and the gather
	// vector live on the conn so a steady-state vectored send allocates
	// nothing. vec is rebuilt (append to [:0]) under mu for every frame;
	// writev consumes wvec — a value copy whose address WriteTo takes, a
	// struct field rather than a local so it does not escape to a fresh
	// heap slice header per send — leaving vec's backing capacity intact
	// for the next frame.
	hdr  [headerBytes]byte
	vec  net.Buffers
	wvec net.Buffers
}

// maxFrameSize bounds a single frame's payload. The read loop treats a
// larger length prefix as stream corruption (equivalent to losing the
// peer) rather than trusting it with a giant allocation.
const maxFrameSize = 1 << 28

// putFrameHeader encodes the length-prefixed frame header: from(4)
// kind(1) tag(4) len(4), little-endian. hdr must have headerBytes room.
func putFrameHeader(hdr []byte, from NodeID, kind Kind, tag int32, payloadLen int) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(from))
	hdr[4] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(payloadLen))
}

// parseFrameHeader decodes what putFrameHeader wrote.
func parseFrameHeader(hdr []byte) (from NodeID, kind Kind, tag int32, payloadLen int) {
	from = NodeID(binary.LittleEndian.Uint32(hdr[0:]))
	kind = Kind(hdr[4])
	tag = int32(binary.LittleEndian.Uint32(hdr[5:]))
	payloadLen = int(binary.LittleEndian.Uint32(hdr[9:]))
	return
}

// writeFrame writes one frame — header plus the concatenation of bufs —
// as a single gather write. On a *net.TCPConn the whole frame goes out
// in one writev with no intermediate copy; elsewhere net.Buffers falls
// back to sequential writes. Does not take ownership of bufs (the
// caller decides whether they return to the slab).
func (tc *tcpConn) writeFrame(from NodeID, kind Kind, tag int32, bufs Buffers) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	putFrameHeader(tc.hdr[:], from, kind, tag, bufs.totalLen())
	tc.vec = append(tc.vec[:0], tc.hdr[:])
	for _, b := range bufs {
		if len(b) > 0 {
			tc.vec = append(tc.vec, b)
		}
	}
	// WriteTo consumes its receiver: it advances the slice and nils out
	// written elements (dropping the references to handed-off buffers).
	// Consuming the wvec copy keeps tc.vec's backing array — and
	// therefore zero-alloc reuse — intact.
	tc.wvec = tc.vec
	_, err := tc.wvec.WriteTo(tc.c)
	return err
}

// dialBudget bounds how long an endpoint retries dialing a peer before
// giving up on cluster formation.
const dialBudget = 30 * time.Second

// NewTCPEndpoint joins a cluster of n nodes as node id. ln must already be
// listening on addrs[id]; addrs lists every node's address. The call
// blocks until the full mesh is established.
func NewTCPEndpoint(id NodeID, ln net.Listener, addrs []string) (*TCPEndpoint, error) {
	n := len(addrs)
	if int(id) < 0 || int(id) >= n {
		return nil, fmt.Errorf("comm: node id %d outside cluster of %d", id, n)
	}
	e := &TCPEndpoint{
		demux: newDemux(id, n),
		id:    id,
		n:     n,
		ln:    ln,
		conns: make([]*tcpConn, n),
	}
	e.stats.initPeers(n)

	errc := make(chan error, n)
	var wg sync.WaitGroup
	// Dial lower-numbered peers.
	for j := 0; j < int(id); j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			c, err := dialWithRetry(addrs[j], dialBudget, uint64(id)<<32|uint64(j))
			if err != nil {
				errc <- fmt.Errorf("comm: node %d dialing node %d: %w", id, j, err)
				return
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(id))
			if _, err := c.Write(hello[:]); err != nil {
				errc <- fmt.Errorf("comm: node %d hello to node %d: %w", id, j, err)
				return
			}
			e.conns[j] = &tcpConn{c: c}
		}(j)
	}
	// Accept higher-numbered peers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < n-1-int(id); accepted++ {
			c, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("comm: node %d accepting: %w", id, err)
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				errc <- fmt.Errorf("comm: node %d reading hello: %w", id, err)
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if peer <= int(id) || peer >= n {
				errc <- fmt.Errorf("comm: node %d got hello from invalid peer %d", id, peer)
				return
			}
			e.conns[peer] = &tcpConn{c: c}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		e.Close()
		return nil, err
	default:
	}
	for j := 0; j < n; j++ {
		if j != int(id) {
			go e.readLoop(NodeID(j))
		}
	}
	return e, nil
}

// dialWithRetry dials addr until it succeeds or the budget elapses,
// pacing attempts with the module's shared Backoff policy keyed on
// dialKey so simultaneous cluster-formation dials from many nodes
// decorrelate without shared rand state.
func dialWithRetry(addr string, budget time.Duration, dialKey uint64) (net.Conn, error) {
	var c net.Conn
	err := defaultBackoff(dialKey).Retry(budget, func(uint64) error {
		var err error
		c, err = net.Dial("tcp", addr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (e *TCPEndpoint) readLoop(from NodeID) {
	// A peer vanishing — clean close at a frame boundary, or a short
	// read inside the length-prefixed header or payload — is fatal to
	// the SPMD run: messages that were due will never arrive. Closing
	// the inbox turns every pending and future Recv into an error
	// instead of a hang; already-delivered messages remain drainable
	// from the closed queues.
	defer e.demux.close()
	conn := e.conns[from].c
	var hdr [headerBytes]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		src, kind, tag, size := parseFrameHeader(hdr[:])
		// The header is the peer's to write: an absurd length, a frame
		// naming another sender or a kind this build has no stream for
		// is stream corruption — the peer is as good as lost — not a
		// length to allocate or a local bug to crash a daemon over.
		if size > maxFrameSize || src != from || kind >= numKinds {
			return
		}
		m := Message{From: src, Kind: kind, Tag: tag}
		if size > 0 {
			// Payloads are read into slab buffers and owned by the
			// receiver: Message.Release returns them for the next frame.
			m.Payload = bufpool.Get(size)
		}
		if _, err := io.ReadFull(conn, m.Payload); err != nil {
			return
		}
		e.deliverSafe(m)
	}
}

// deliverSafe counts and delivers a frame whose kind readLoop checked;
// the demux drops one that races the inbox's shutdown.
func (e *TCPEndpoint) deliverSafe(m Message) {
	e.stats.countRecv(m.From, m.Kind, len(m.Payload))
	e.demux.deliver(m)
}

// ID returns this endpoint's node ID.
func (e *TCPEndpoint) ID() NodeID { return e.id }

// N returns the cluster size.
func (e *TCPEndpoint) N() int { return e.n }

// SendBufs implements Endpoint: ownership of every buffer passes to the
// transport. The kernel copies the bytes during writev, so the buffers
// return to the slab as soon as the write completes — success or not.
func (e *TCPEndpoint) SendBufs(to NodeID, kind Kind, tag int32, bufs Buffers) error {
	defer bufs.release()
	if int(to) < 0 || int(to) >= e.n || to == e.id {
		return fmt.Errorf("comm: node %d cannot send to %d", e.id, to)
	}
	total := bufs.totalLen()
	// A failed write means the peer (or our own endpoint) is gone — the
	// same transport cut a closed inbox reports — so it carries the
	// peer-lost type, not a bare I/O error.
	if err := e.conns[to].writeFrame(e.id, kind, tag, bufs); err != nil {
		return &ClosedError{Node: e.id, From: to, Kind: kind, Op: "send", Cause: err}
	}
	e.stats.countSend(to, kind, total)
	return nil
}

// Stats implements Endpoint.
func (e *TCPEndpoint) Stats() *Stats { return &e.stats }

// Close shuts down all connections and the listener.
func (e *TCPEndpoint) Close() error {
	e.closeOnce.Do(func() {
		if e.ln != nil {
			e.closeErr = e.ln.Close()
		}
		for _, c := range e.conns {
			if c != nil {
				c.c.Close()
			}
		}
		e.demux.close()
	})
	return e.closeErr
}

// NewTCPClusterLoopback forms an n-node TCP cluster on 127.0.0.1 ephemeral
// ports within this process — the transport-integration configuration used
// by tests and the tcpcluster example. For a genuinely distributed run,
// call NewTCPEndpoint in each process with a shared address list.
func NewTCPClusterLoopback(n int) ([]*TCPEndpoint, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	endpoints := make([]*TCPEndpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			endpoints[i], errs[i] = NewTCPEndpoint(NodeID(i), listeners[i], addrs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, e := range endpoints {
				if e != nil {
					e.Close()
				}
			}
			return nil, err
		}
	}
	return endpoints, nil
}
