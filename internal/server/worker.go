package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// WorkerConfig configures a worker daemon.
type WorkerConfig struct {
	// Addr is the control listen address ("127.0.0.1:0", ":7101").
	Addr string
	// DataHost is the host data-plane listeners bind and advertise
	// (default 127.0.0.1; set to this machine's reachable address when
	// the ring spans hosts).
	DataHost string
	// MaxSlots caps concurrently active engine slots; further builds
	// are answered with build-reject so the front-end schedules
	// elsewhere. 0 means unlimited.
	MaxSlots int
	// Logf receives one line per lifecycle event when non-nil.
	Logf func(format string, args ...any)
	// Registry receives worker.* metrics when non-nil.
	Registry *obs.Registry
}

// WorkerDaemon is the sgworker runtime: it accepts control connections
// from a serving front-end. A connection starts in a lightweight
// request loop — health pings and graph preloads — and becomes one
// engine slot when a build arrives: graph (each epoch's directed
// snapshot shipped once, as a blob or a chained delta, and cached with
// the variants derived from it; interrupted transfers resume),
// data-plane endpoint, distributed engine — then answers run requests
// in lockstep with node 0. One connection is one slot; the front-end's
// remote provider holds one per pooled remote engine.
type WorkerDaemon struct {
	cfg WorkerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[*workerConn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	graphMu sync.Mutex
	bases   map[string]*baseGraph // snapshot fingerprint → cached epoch
	partial map[string][]byte     // fingerprint → acked prefix of an interrupted transfer

	slotsActive   atomic.Int64
	slotsBuilt    atomic.Int64
	buildsRej     atomic.Int64
	runsStarted   atomic.Int64
	runsFailed    atomic.Int64
	pings         atomic.Int64
	preloads      atomic.Int64
	deltasApplied atomic.Int64
}

// baseGraph is one cached epoch of a served graph: the directed
// snapshot the front-end shipped, and the serving variants derived from
// it on first use.
type baseGraph struct {
	name  string
	epoch uint64
	g     *graph.Graph // the directed snapshot

	mu      sync.Mutex
	derived map[graphVariant]*graph.Graph
}

// variant returns (deriving once) variant v of the base.
func (b *baseGraph) variant(v graphVariant) *graph.Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.derived[v]
	if !ok {
		g = deriveVariant(b.g, v)
		b.derived[v] = g
	}
	return g
}

// workerConn is one control connection and the slot state hanging off
// it; ep is published under mu so Close can cut a run short.
type workerConn struct {
	cc *comm.CtrlConn
	mu sync.Mutex
	ep *comm.TCPEndpoint
}

func (wc *workerConn) setEndpoint(ep *comm.TCPEndpoint) {
	wc.mu.Lock()
	wc.ep = ep
	wc.mu.Unlock()
}

func (wc *workerConn) closeEndpoint() {
	wc.mu.Lock()
	if wc.ep != nil {
		wc.ep.Close()
	}
	wc.mu.Unlock()
}

// StartWorkerDaemon listens on cfg.Addr and serves slots until Close.
func StartWorkerDaemon(cfg WorkerConfig) (*WorkerDaemon, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.DataHost == "" {
		cfg.DataHost = "127.0.0.1"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: worker listen %s: %w", cfg.Addr, err)
	}
	d := &WorkerDaemon{
		cfg:     cfg,
		ln:      ln,
		conns:   make(map[*workerConn]struct{}),
		bases:   make(map[string]*baseGraph),
		partial: make(map[string][]byte),
	}
	if cfg.Registry != nil {
		cfg.Registry.RegisterInt("worker.slots_active", d.slotsActive.Load)
		cfg.Registry.RegisterInt("worker.slots_built", d.slotsBuilt.Load)
		cfg.Registry.RegisterInt("worker.builds_rejected", d.buildsRej.Load)
		cfg.Registry.RegisterInt("worker.runs_started", d.runsStarted.Load)
		cfg.Registry.RegisterInt("worker.runs_failed", d.runsFailed.Load)
		cfg.Registry.RegisterInt("worker.pings", d.pings.Load)
		cfg.Registry.RegisterInt("worker.preloads", d.preloads.Load)
		cfg.Registry.RegisterInt("worker.deltas_applied", d.deltasApplied.Load)
		cfg.Registry.RegisterInt("worker.graphs_cached", func() int64 { return int64(d.graphsCached()) })
	}
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// Addr is the control address the daemon is reachable on.
func (d *WorkerDaemon) Addr() string { return d.ln.Addr().String() }

// graphsCached counts the base graphs (epochs) held in memory.
func (d *WorkerDaemon) graphsCached() int {
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	return len(d.bases)
}

// Close stops accepting, severs every control connection and data
// plane (aborting in-flight runs), and waits for slot goroutines.
func (d *WorkerDaemon) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	err := d.ln.Close()
	d.mu.Lock()
	for wc := range d.conns {
		wc.cc.Close()
		wc.closeEndpoint()
	}
	d.mu.Unlock()
	d.wg.Wait()
	return err
}

func (d *WorkerDaemon) acceptLoop() {
	defer d.wg.Done()
	for {
		c, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wc := &workerConn{cc: comm.NewCtrlConn(c)}
		d.mu.Lock()
		if d.closed.Load() {
			d.mu.Unlock()
			wc.cc.Close()
			return
		}
		d.conns[wc] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveConn(wc)
			d.mu.Lock()
			delete(d.conns, wc)
			d.mu.Unlock()
		}()
	}
}

// baseFor returns the cached epoch for a snapshot fingerprint, nil when
// none is held.
func (d *WorkerDaemon) baseFor(fp string) *baseGraph {
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	return d.bases[fp]
}

// storeBase caches a received epoch under its snapshot fingerprint,
// keeping only the newest mutate.DefaultRetention epochs of its graph:
// an older one a pinned query needs is shipped again.
func (d *WorkerDaemon) storeBase(ref graphRef, g *graph.Graph) *baseGraph {
	b := &baseGraph{name: ref.name, epoch: ref.epoch, g: g, derived: make(map[graphVariant]*graph.Graph)}
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	d.bases[ref.fp] = b
	delete(d.partial, ref.fp)
	var held []string
	for f, c := range d.bases {
		if c.name == ref.name {
			held = append(held, f)
		}
	}
	if len(held) > mutate.DefaultRetention {
		sort.Slice(held, func(i, j int) bool { return d.bases[held[i]].epoch > d.bases[held[j]].epoch })
		for _, f := range held[mutate.DefaultRetention:] {
			delete(d.bases, f)
		}
	}
	return b
}

// takePartial claims the retained prefix of an interrupted transfer of
// fp; the caller owns it until it either completes the transfer or
// stashes the (possibly longer) prefix back.
func (d *WorkerDaemon) takePartial(fp string) []byte {
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	buf := d.partial[fp]
	delete(d.partial, fp)
	return buf
}

func (d *WorkerDaemon) stashPartial(fp string, buf []byte) {
	if len(buf) == 0 {
		return
	}
	d.graphMu.Lock()
	d.partial[fp] = buf
	d.graphMu.Unlock()
}

// pong snapshots the capacity advertisement probes fold into
// scheduling.
func (d *WorkerDaemon) pong() pongMsg {
	return pongMsg{
		SlotsActive:  int(d.slotsActive.Load()),
		MaxSlots:     d.cfg.MaxSlots,
		GraphsCached: d.graphsCached(),
	}
}

// tryAcquireSlot claims one slot of capacity; false when the worker is
// at MaxSlots.
func (d *WorkerDaemon) tryAcquireSlot() bool {
	for {
		cur := d.slotsActive.Load()
		if d.cfg.MaxSlots > 0 && cur >= int64(d.cfg.MaxSlots) {
			return false
		}
		if d.slotsActive.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// graphRef names one epoch of a served graph: its snapshot fingerprint
// and its parent's, as a build or preload announces them.
type graphRef struct {
	name     string
	epoch    uint64
	fp       string
	parentFP string
}

// recvGraphPayload receives one epoch announced by a build or preload
// the worker lacks: either a delta frame (the committed batch, applied
// to the cached parent epoch) or a chunked full blob, caching the
// result under ref.fp.
func (d *WorkerDaemon) recvGraphPayload(cc *comm.CtrlConn, ref graphRef, parent *baseGraph, buf []byte) (*baseGraph, error) {
	env, err := cc.Recv()
	if err != nil {
		d.stashPartial(ref.fp, buf)
		return nil, err
	}
	switch env.Type {
	case "graph":
		var gm graphMsg
		if err := json.Unmarshal(env.Body, &gm); err != nil {
			d.stashPartial(ref.fp, buf)
			return nil, err
		}
		return d.recvGraphChunked(cc, ref, gm, buf)
	case "delta":
		var dm deltaMsg
		if err := json.Unmarshal(env.Body, &dm); err != nil {
			return nil, err
		}
		return d.recvDelta(cc, ref, parent, dm)
	default:
		return nil, fmt.Errorf("unexpected control message %q announcing graph payload", env.Type)
	}
}

// recvGraphChunked receives one chunked full-graph transfer, resuming
// from (and on failure re-stashing) the retained prefix for ref.fp, and
// verifies the content hash before caching.
func (d *WorkerDaemon) recvGraphChunked(cc *comm.CtrlConn, ref graphRef, gm graphMsg, buf []byte) (*baseGraph, error) {
	if gm.Size <= 0 || len(buf) > gm.Size {
		buf = nil
	}
	blob, err := cc.RecvBlobChunked(buf, gm.Size)
	if err != nil {
		// Keep the acknowledged prefix: the next transfer of this
		// fingerprint resumes here instead of starting over.
		d.stashPartial(ref.fp, blob)
		return nil, err
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != gm.SHA {
		return nil, fmt.Errorf("graph blob hash mismatch from %s", cc.RemoteAddr())
	}
	g, err := graph.ReadBinary(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("bad graph blob: %w", err)
	}
	return d.storeBase(ref, g), nil
}

// recvDelta materializes ref.fp by applying a shipped batch to the
// cached parent epoch. Integrity is the delta hash, lineage the chain:
// ref.fp must equal ChainFingerprint(ref.parentFP, bytes), so a torn or
// misdirected batch cannot silently produce a wrong graph.
func (d *WorkerDaemon) recvDelta(cc *comm.CtrlConn, ref graphRef, parent *baseGraph, dm deltaMsg) (*baseGraph, error) {
	if parent == nil {
		return nil, fmt.Errorf("delta announced but parent fp %.12s not cached", ref.parentFP)
	}
	blob, err := cc.RecvBlobChunked(nil, dm.Size)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != dm.SHA {
		return nil, fmt.Errorf("delta hash mismatch from %s", cc.RemoteAddr())
	}
	if got := mutate.ChainFingerprint(ref.parentFP, blob); got != ref.fp {
		return nil, fmt.Errorf("delta chain mismatch: parent %.12s + batch → %.12s, want %.12s", ref.parentFP, got, ref.fp)
	}
	batch, err := mutate.DecodeBatch(blob)
	if err != nil {
		return nil, fmt.Errorf("bad delta: %w", err)
	}
	g, err := mutate.Apply(parent.g, batch)
	if err != nil {
		return nil, fmt.Errorf("applying delta: %w", err)
	}
	d.deltasApplied.Add(1)
	return d.storeBase(ref, g), nil
}

// serveConn drives one control connection: health pings and graph
// preloads until a build arrives, then the slot's whole lifetime.
func (d *WorkerDaemon) serveConn(wc *workerConn) {
	cc := wc.cc
	defer cc.Close()

	for {
		env, err := cc.Recv()
		if err != nil {
			return
		}
		switch env.Type {
		case "ping":
			d.pings.Add(1)
			if err := cc.Send("pong", d.pong()); err != nil {
				return
			}
		case "preload":
			var pm preloadMsg
			if err := json.Unmarshal(env.Body, &pm); err != nil {
				return
			}
			if err := d.handlePreload(cc, pm); err != nil {
				d.cfg.Logf("sgworker: preload failed: %v", err)
				return
			}
		case "build":
			var bm buildMsg
			if err := json.Unmarshal(env.Body, &bm); err != nil {
				return
			}
			if !d.tryAcquireSlot() {
				d.buildsRej.Add(1)
				if err := cc.Send("build-reject", rejectMsg{
					Reason: fmt.Sprintf("at capacity (%d/%d slots active)", d.slotsActive.Load(), d.cfg.MaxSlots),
				}); err != nil {
					return
				}
				continue
			}
			d.serveSlot(wc, bm)
			d.slotsActive.Add(-1)
			return
		case "close":
			return
		default:
			d.cfg.Logf("sgworker: unexpected control message %q", env.Type)
			return
		}
	}
}

// negotiateGraph is the worker's half of the one graph negotiation,
// shared by preloads and slot builds: announce what is held of ref (the
// epoch itself, its parent, the retained prefix of an interrupted
// transfer) and receive whatever the front-end then ships. shipped is
// false when the epoch was cached.
func (d *WorkerDaemon) negotiateGraph(cc *comm.CtrlConn, ref graphRef) (b *baseGraph, shipped bool, err error) {
	b = d.baseFor(ref.fp)
	var parent *baseGraph
	if b == nil && ref.parentFP != "" {
		parent = d.baseFor(ref.parentFP)
	}
	buf := d.takePartial(ref.fp)
	if err := cc.Send("graph-state", graphStateMsg{Have: b != nil, HaveParent: parent != nil, Offset: len(buf)}); err != nil {
		d.stashPartial(ref.fp, buf)
		return nil, false, err
	}
	if b != nil {
		return b, false, nil
	}
	b, err = d.recvGraphPayload(cc, ref, parent, buf)
	return b, true, err
}

// handlePreload warms one graph ahead of slot builds: a rejoining
// worker receives the newest epoch of every graph the front-end built
// slots for, chunked, resuming interrupted transfers.
func (d *WorkerDaemon) handlePreload(cc *comm.CtrlConn, pm preloadMsg) error {
	d.preloads.Add(1)
	b, shipped, err := d.negotiateGraph(cc, graphRef{name: pm.Graph, epoch: pm.Epoch, fp: pm.FP, parentFP: pm.ParentFP})
	if err != nil {
		return err
	}
	if shipped {
		d.cfg.Logf("sgworker: preloaded graph %s@%d (%d vertices, fp %.12s)",
			pm.Graph, pm.Epoch, b.g.NumVertices(), pm.FP)
	}
	return cc.Send("preloaded", upMsg{})
}

// serveSlot drives one slot's lifetime after its build was accepted:
// graph transfer when the epoch is new, variant derivation, mesh
// formation, then the run/done loop until the front-end closes the slot
// or either side fails.
func (d *WorkerDaemon) serveSlot(wc *workerConn, bm buildMsg) {
	cc := wc.cc
	if bm.Variant < variantDirected || bm.Variant > variantWeighted {
		d.cfg.Logf("sgworker: build names unknown graph variant %d", bm.Variant)
		return
	}
	b, shipped, err := d.negotiateGraph(cc, graphRef{name: bm.Graph, epoch: bm.Epoch, fp: bm.FP, parentFP: bm.ParentFP})
	if err != nil {
		d.cfg.Logf("sgworker: graph transfer failed: %v", err)
		return
	}
	if shipped {
		d.cfg.Logf("sgworker: cached graph %s@%d (%d vertices, fp %.12s)",
			bm.Graph, bm.Epoch, b.g.NumVertices(), bm.FP)
	}
	g := b.variant(bm.Variant)

	dataLn, err := net.Listen("tcp", net.JoinHostPort(d.cfg.DataHost, "0"))
	if err != nil {
		d.cfg.Logf("sgworker: data listener: %v", err)
		return
	}
	if err := cc.Send("ready", readyMsg{DataAddr: dataLn.Addr().String()}); err != nil {
		dataLn.Close()
		return
	}
	var st startMsg
	if err := cc.Expect("start", &st); err != nil {
		dataLn.Close()
		return
	}
	ep, err := comm.NewTCPEndpoint(comm.NodeID(bm.Node), dataLn, st.Addrs)
	if err != nil {
		//sgvet:ignore commerr best-effort error reply: if the send fails the master's Expect fails too and reports the drop
		cc.Send("up", upMsg{Error: err.Error()})
		dataLn.Close()
		return
	}
	wc.setEndpoint(ep) // Close() can now cut a run short
	defer ep.Close()   // closes dataLn too

	mode, err := cliutil.ParseMode(bm.Opts.Mode)
	if err != nil {
		//sgvet:ignore commerr best-effort error reply: if the send fails the master's Expect fails too and reports the drop
		cc.Send("up", upMsg{Error: err.Error()})
		return
	}
	opts := core.Options{
		NumNodes:     bm.Nodes,
		Mode:         mode,
		DepThreshold: bm.Opts.DepThreshold,
		NumBuffers:   bm.Opts.NumBuffers,
		Workers:      bm.Opts.Workers,
		StallTimeout: time.Duration(bm.Opts.StallMs) * time.Millisecond,
	}
	eng, err := core.NewDistributedNode(g, opts, ep)
	if err != nil {
		//sgvet:ignore commerr best-effort error reply: if the send fails the master's Expect fails too and reports the drop
		cc.Send("up", upMsg{Error: err.Error()})
		return
	}
	defer eng.Close()
	// Counted before "up" goes out: whoever hears it may read the counter
	// at once (the master's side of a build now takes microseconds).
	d.slotsBuilt.Add(1)
	if err := cc.Send("up", upMsg{}); err != nil {
		d.slotsBuilt.Add(-1)
		return
	}
	d.cfg.Logf("sgworker: slot up as node %d/%d for %s/%s (%v)",
		bm.Node, bm.Nodes, bm.Graph, bm.Variant, mode)

	for {
		env, err := cc.Recv()
		if err != nil {
			return
		}
		switch env.Type {
		case "run":
			var q Request
			if err := json.Unmarshal(env.Body, &q); err != nil {
				//sgvet:ignore commerr best-effort error reply: if the send fails the master's Expect fails too and reports the drop
				cc.Send("done", doneMsg{Error: fmt.Sprintf("bad run request: %v", err)})
				return
			}
			d.runsStarted.Add(1)
			_, _, runErr := RunAlgorithm(eng, q)
			var dm doneMsg
			if runErr != nil {
				d.runsFailed.Add(1)
				dm.Error = runErr.Error()
			}
			if err := cc.Send("done", dm); err != nil {
				return
			}
			if runErr != nil {
				// The engine is poisoned and this node cannot re-form
				// the ring; the front-end retires the slot.
				d.cfg.Logf("sgworker: run failed, retiring slot: %v", runErr)
				return
			}
		case "close":
			return
		default:
			d.cfg.Logf("sgworker: unexpected control message %q", env.Type)
			return
		}
	}
}
