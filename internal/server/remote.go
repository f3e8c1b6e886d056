package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// The remote provider turns a worker roster into pool slots: each build
// forms one distributed cluster with this process as node 0 and one
// sgworker process per healthy roster member as nodes 1..p-1, connected
// by the engine's TCP endpoints. The control protocol (comm.CtrlConn)
// carries the per-slot negotiation:
//
//	front-end → worker   build {graph, variant, fp, parent_fp, epoch, node, nodes, opts}
//	worker → front-end   build-reject {reason}  (worker at slot capacity)
//	worker → front-end   graph-state {have, have_parent, offset}
//	front-end → worker   delta {size, sha} + chunked batch  (when the
//	                     worker holds parent_fp; it checks
//	                     ChainFingerprint(parent_fp, batch) == fp and
//	                     applies the committed batch locally)
//	front-end → worker   graph {size, chunk, sha} + chunked blob  (when the
//	                     worker lacks both fp and parent; resumes from offset)
//	worker → front-end   ready {data_addr}
//	front-end → worker   start {addrs}       (the full data-plane address list)
//	worker → front-end   up {error}          (mesh formed, engine built)
//	…per query…          run {Request} / done {error}
//	front-end → worker   close               (slot teardown)
//
// One graph ships per epoch: fp and parent_fp name the epoch's directed
// snapshot, whatever the variant, and the worker derives the variant the
// slot runs on (deriveVariant) from the base it caches. Graphs ship in
// fixed-size CRC-checked chunks (comm.SendBlobChunked);
// the worker retains the acknowledged prefix across a disconnect, and
// graph-state's offset lets the next transfer resume where the last one
// died instead of starting over.
//
// Closures cannot cross process boundaries, so queries ship as the
// canonical Request and every machine runs the same RunAlgorithm
// dispatch — the SPMD contract: identical Run sequences on every node,
// differing only in which vertex partition each owns.

// Remote engines run with recovery and checkpointing disabled: a node
// cannot re-form a ring it does not own. The failure model is the
// roster's probe/rejoin state machine (roster.go): a worker loss
// poisons the slot, the pool retires it, the next lease's build re-forms
// the ring over the healthy members, and a restarted worker is preloaded
// and folded back in by a later build — queries keep being served at
// reduced width in between, flagged degraded.

const (
	defaultCtrlDialTimeout = 3 * time.Second
	// defaultBuildTimeout bounds each control-protocol step of slot
	// construction (graph shipping dominates).
	defaultBuildTimeout = 2 * time.Minute
	// defaultFinishTimeout bounds waiting for per-query worker
	// acknowledgements; a worker that cannot answer by then is treated
	// as lost and the slot is retired.
	defaultFinishTimeout = 30 * time.Second
	// maxBuildAttempts bounds how many times one build re-forms the
	// ring after a worker dies mid-handshake before going degraded.
	maxBuildAttempts = 3
)

// wireOptions is the engine configuration shipped to workers — the
// subset of core.Options that is meaningful across process boundaries.
type wireOptions struct {
	Mode         string `json:"mode"`
	DepThreshold int    `json:"dep_threshold"`
	NumBuffers   int    `json:"num_buffers"`
	Workers      int    `json:"workers"`
	StallMs      int64  `json:"stall_ms"`
}

type buildMsg struct {
	Graph   string       `json:"graph"`
	Variant graphVariant `json:"variant"`
	// FP names the epoch's directed snapshot; ParentFP the parent
	// epoch's, offered so the worker can answer whether a delta ship
	// suffices. Epoch is the version number, which orders the worker's
	// cache eviction.
	FP       string      `json:"fp"`
	ParentFP string      `json:"parent_fp,omitempty"`
	Epoch    uint64      `json:"epoch"`
	Node     int         `json:"node"`
	Nodes    int         `json:"nodes"`
	Opts     wireOptions `json:"opts"`
}

// rejectMsg is a worker's refusal to host another slot.
type rejectMsg struct {
	Reason string `json:"reason"`
}

type graphStateMsg struct {
	Have bool `json:"have"`
	// HaveParent reports the worker holds the parent epoch, so the
	// sender may ship the committed batch instead of the blob.
	HaveParent bool `json:"have_parent,omitempty"`
	// Offset is how many bytes of a previously interrupted transfer of
	// this fingerprint the worker retained; the sender resumes there.
	Offset int `json:"offset,omitempty"`
}

// graphMsg announces a chunked full-graph transfer.
type graphMsg struct {
	Size  int    `json:"size"`  // total serialized bytes
	Chunk int    `json:"chunk"` // chunk size the sender will use
	SHA   string `json:"sha"`   // sha256 of the blob, verified on receipt
}

// deltaMsg announces a chunked delta transfer: the worker applies the
// committed batch to the parent epoch it already holds instead of
// receiving the whole adjacency, after checking the result's lineage:
// FP == ChainFingerprint(ParentFP, bytes).
type deltaMsg struct {
	Size int    `json:"size"`
	SHA  string `json:"sha"` // sha256 of the delta bytes
}

// preloadMsg asks a rejoining worker to warm one graph's newest epoch
// ahead of slot builds.
type preloadMsg struct {
	Graph    string `json:"graph"`
	Epoch    uint64 `json:"epoch"`
	FP       string `json:"fp"`
	ParentFP string `json:"parent_fp,omitempty"`
}

type readyMsg struct {
	DataAddr string `json:"data_addr"`
}

type startMsg struct {
	Addrs []string `json:"addrs"`
}

type upMsg struct {
	Error string `json:"error,omitempty"`
}

type doneMsg struct {
	Error string `json:"error,omitempty"`
}

// remoteProvider builds engines over a roster of sgworker processes.
// It reads the server's Config: Workers, Engine (NumNodes is derived
// from the surviving roster, and recovery/checkpoint fields are forced
// off, see the failure model above), Tracer (node-0 phase spans;
// worker-side spans stay on the workers), AdvertiseHost and Logf.
type remoteProvider struct {
	cfg    Config
	roster *rosterManager

	// newest is the latest-epoch spec build was handed per graph: what
	// the rejoin hook preloads. The blob is memoized once, on the
	// snapshot; a spec only points at it.
	mu     sync.Mutex
	newest map[string]buildSpec

	deltaShips     atomic.Int64
	degradedBuilds atomic.Int64
}

// rejectedError is a worker's build-reject answer: it is at slot
// capacity, which excludes it from this build without a health penalty.
type rejectedError struct{ reason string }

func (e *rejectedError) Error() string { return "rejected build: " + e.reason }

// newRemoteProvider returns a provider that schedules onto
// cfg.Workers, tracking their health with a probing roster.
func newRemoteProvider(cfg Config) *remoteProvider {
	p := &remoteProvider{cfg: cfg, newest: make(map[string]buildSpec)}
	p.roster = newRosterManager(cfg, p.preload)
	return p
}

func (p *remoteProvider) close() { p.roster.Close() }

// fleet exposes the roster snapshot for /statusz, with the provider's
// own counters: in-process fallback builds, and graph transfers
// satisfied by a delta frame instead of a full blob.
func (p *remoteProvider) fleet() fleetStatus {
	fs := p.roster.Fleet()
	fs.DegradedBuilds = p.degradedBuilds.Load()
	fs.DeltaShips = p.deltaShips.Load()
	return fs
}

// remember keeps spec as what a rejoining worker is preloaded with for
// its graph, unless a newer epoch's is already held.
func (p *remoteProvider) remember(spec buildSpec) {
	p.mu.Lock()
	if cur, ok := p.newest[spec.GraphName]; !ok || spec.Epoch >= cur.Epoch {
		p.newest[spec.GraphName] = spec
	}
	p.mu.Unlock()
}

// newestSpecs snapshots the remembered specs in graph order, so rejoin
// transfers are ordered deterministically.
func (p *remoteProvider) newestSpecs() []buildSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.newest))
	for k := range p.newest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]buildSpec, len(keys))
	for i, k := range keys {
		out[i] = p.newest[k]
	}
	return out
}

// preload is the roster's rejoin hook: ship the newest epoch of every
// graph slots were built for to a worker coming back from dead,
// so its re-admission never stalls a slot build on a cold transfer.
// Superseded epochs are not re-shipped — no build will ask for them. A
// worker that retained the parent epoch gets only the delta; interrupted
// full transfers resume from the worker's retained offset.
func (p *remoteProvider) preload(addr string) error {
	specs := p.newestSpecs()
	if len(specs) == 0 {
		return nil
	}
	cc, err := comm.DialCtrl(addr, defaultCtrlDialTimeout)
	if err != nil {
		return err
	}
	defer cc.Close()
	//sgvet:ignore commerr deadline-arm failure means the conn is already dead; the preload traffic below reports the real error
	cc.SetDeadline(time.Now().Add(defaultBuildTimeout))
	for _, spec := range specs {
		msg := preloadMsg{Graph: spec.GraphName, Epoch: spec.Epoch, FP: spec.FP, ParentFP: spec.ParentFP}
		if err := p.shipGraph(cc, "preload", msg, spec); err != nil {
			return fmt.Errorf("preloading %s: %w", addr, err)
		}
		var up upMsg
		if err := cc.Expect("preloaded", &up); err != nil {
			return fmt.Errorf("preloading %s: %w", addr, err)
		}
		if up.Error != "" {
			return fmt.Errorf("preloading %s: %s", addr, up.Error)
		}
	}
	return nil
}

// shipGraph is the front-end's half of the one graph negotiation, shared
// by preloading and slot builds: announce, read the worker's graph-state
// (the fingerprint itself, the parent epoch, a retained partial offset)
// and ship the cheapest sufficient payload — nothing, the committed
// batch, or the full blob's missing suffix. A build-reject in place of
// the state is a *rejectedError.
func (p *remoteProvider) shipGraph(cc *comm.CtrlConn, announce string, msg any, spec buildSpec) error {
	if err := cc.Send(announce, msg); err != nil {
		return err
	}
	env, err := cc.Recv()
	if err != nil {
		return err
	}
	var gs graphStateMsg
	switch env.Type {
	case "build-reject":
		var rej rejectMsg
		json.Unmarshal(env.Body, &rej) // a malformed reject body still rejects; the reason is advisory
		return &rejectedError{reason: rej.Reason}
	case "graph-state":
		if err := json.Unmarshal(env.Body, &gs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unexpected control message %q answering %s", env.Type, announce)
	}
	if gs.Have {
		return nil
	}
	if gs.HaveParent && spec.Delta != nil {
		delta := spec.Delta()
		sum := sha256.Sum256(delta)
		if err := cc.Send("delta", deltaMsg{Size: len(delta), SHA: hex.EncodeToString(sum[:])}); err != nil {
			return err
		}
		if err := cc.SendBlobChunked(delta, 0, comm.DefaultChunkBytes); err != nil {
			return err
		}
		p.deltaShips.Add(1)
		return nil
	}
	blob, sha, err := spec.Blob()
	if err != nil {
		return err
	}
	if gs.Offset < 0 || gs.Offset > len(blob) {
		gs.Offset = 0
	}
	if err := cc.Send("graph", graphMsg{Size: len(blob), Chunk: comm.DefaultChunkBytes, SHA: sha}); err != nil {
		return err
	}
	return cc.SendBlobChunked(blob, gs.Offset, comm.DefaultChunkBytes)
}

// build forms a ring over the roster's healthy workers. A worker that
// fails mid-handshake is reported to the roster and the attempt retried
// over the survivors; a worker at capacity is excluded without a health
// penalty. When no worker is usable (or every attempt failed), the
// build degrades to an in-process engine flagged degraded rather than
// failing the query path.
func (p *remoteProvider) build(spec buildSpec) (engine, error) {
	p.remember(spec)
	exclude := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < maxBuildAttempts; attempt++ {
		targets := make([]string, 0, len(p.cfg.Workers))
		for _, addr := range p.roster.Usable() {
			if !exclude[addr] {
				targets = append(targets, addr)
			}
		}
		if len(targets) == 0 {
			break
		}
		eng, badAddr, err := p.buildAttempt(spec, targets)
		if err == nil {
			return eng, nil
		}
		lastErr = err
		var rej *rejectedError
		switch {
		case badAddr == "":
		case errors.As(err, &rej):
			exclude[badAddr] = true
		default:
			p.roster.ObserveFailure(badAddr)
		}
	}
	if lastErr != nil {
		p.cfg.Logf("server: remote build failed (%v); serving degraded", lastErr)
	}
	return p.buildDegraded(spec)
}

// workerLink pairs one slot control connection with the roster address
// it was dialed at (RemoteAddr may differ after resolution).
type workerLink struct {
	addr string
	cc   *comm.CtrlConn
}

// buildAttempt forms one ring over targets. On failure it names the
// worker that broke the handshake (empty when the failure was local); a
// capacity rejection rather than a fault wraps a *rejectedError.
func (p *remoteProvider) buildAttempt(spec buildSpec, targets []string) (eng engine, badAddr string, err error) {
	var links []workerLink
	for _, addr := range targets {
		cc, derr := comm.DialCtrl(addr, defaultCtrlDialTimeout)
		if derr != nil {
			// Report the dial failure immediately so the retry skips
			// this worker, and keep forming the ring over the rest.
			p.roster.ObserveFailure(addr)
			continue
		}
		links = append(links, workerLink{addr: addr, cc: cc})
	}
	if len(links) == 0 {
		return nil, "", fmt.Errorf("no sgworker reachable (targets %v)", targets)
	}
	closeAll := func() {
		for _, l := range links {
			l.cc.Close()
		}
	}
	fail := func(l workerLink, e error) (engine, string, error) {
		closeAll()
		return nil, l.addr, fmt.Errorf("worker %s: %w", l.addr, e)
	}

	n := len(links) + 1 // node 0 is this process
	opts := p.cfg.Engine
	opts.NumNodes = n
	opts.Mode = spec.Mode
	opts.Tracer = p.cfg.Tracer
	opts.Endpoints = nil
	opts.Link = nil
	opts.Fault = nil
	opts.MaxRestarts = 0
	opts.CheckpointEvery = 0
	opts.Checkpoints = nil

	wire := wireOptions{
		Mode:         spec.Mode.String(),
		DepThreshold: opts.DepThreshold,
		NumBuffers:   opts.NumBuffers,
		Workers:      opts.Workers,
		StallMs:      opts.StallTimeout.Milliseconds(),
	}

	deadline := time.Now().Add(defaultBuildTimeout)
	for _, l := range links {
		//sgvet:ignore commerr deadline-arm failure means the conn is already dead; the next Expect/Send on it reports the real error
		l.cc.SetDeadline(deadline)
	}

	// Phase 1: announce the build and ship the graph where needed.
	addrs := make([]string, n)
	for i, l := range links {
		node := i + 1
		msg := buildMsg{Graph: spec.GraphName, Variant: spec.Variant,
			FP: spec.FP, ParentFP: spec.ParentFP, Epoch: spec.Epoch,
			Node: node, Nodes: n, Opts: wire}
		if err := p.shipGraph(l.cc, "build", msg, spec); err != nil {
			return fail(l, err)
		}
		var rd readyMsg
		if err := l.cc.Expect("ready", &rd); err != nil {
			return fail(l, err)
		}
		addrs[node] = rd.DataAddr
	}

	// Phase 2: open node 0's data listener, broadcast the address list,
	// and form the mesh. Every NewTCPEndpoint (ours and each worker's)
	// must run concurrently — the mesh blocks until complete.
	ln, err := net.Listen("tcp", net.JoinHostPort(p.cfg.AdvertiseHost, "0"))
	if err != nil {
		closeAll()
		return nil, "", fmt.Errorf("node-0 data listener: %w", err)
	}
	addrs[0] = ln.Addr().String()
	for _, l := range links {
		if err := l.cc.Send("start", startMsg{Addrs: addrs}); err != nil {
			ln.Close()
			return fail(l, err)
		}
	}
	ep, err := comm.NewTCPEndpoint(0, ln, addrs)
	if err != nil {
		closeAll()
		return nil, "", fmt.Errorf("forming data plane: %w", err)
	}
	for _, l := range links {
		var up upMsg
		err := l.cc.Expect("up", &up)
		if err == nil && up.Error != "" {
			err = fmt.Errorf("%s", up.Error)
		}
		if err != nil {
			ep.Close()
			return fail(l, fmt.Errorf("failed to come up: %w", err))
		}
	}
	for _, l := range links {
		//sgvet:ignore commerr clearing a deadline on a dead conn is harmless; later traffic reports the real error
		l.cc.SetDeadline(time.Time{})
	}

	ceng, err := core.NewDistributedNode(spec.Graph, opts, ep)
	if err != nil {
		ep.Close()
		closeAll()
		return nil, "", fmt.Errorf("building node-0 engine: %w", err)
	}
	members := make([]string, len(links))
	for i, l := range links {
		members[i] = l.addr
	}
	return &remoteEngine{
		Engine:   ceng,
		ep:       ep,
		links:    links,
		prov:     p,
		members:  members,
		degraded: len(members) < len(p.cfg.Workers),
	}, "", nil
}

// buildDegraded serves the slot from an in-process engine when no
// worker ring can be formed: reduced capacity, but never a hard 500 for
// want of a fleet. The slot reports degraded on every response and goes
// stale as soon as a worker becomes usable again.
func (p *remoteProvider) buildDegraded(spec buildSpec) (engine, error) {
	p.degradedBuilds.Add(1)
	opts := p.cfg.Engine
	opts.Endpoints = nil
	opts.Link = nil
	opts.Fault = nil
	if opts.NumNodes <= 0 {
		opts.NumNodes = 1
	}
	eng, err := newLocalEngine(spec, opts, p.cfg.Tracer, "")
	if err != nil {
		return nil, fmt.Errorf("degraded in-process engine: %w", err)
	}
	p.cfg.Logf("server: no usable worker; serving %s/%v degraded in-process", spec.GraphName, spec.Variant)
	return &degradedEngine{localEngine: eng, prov: p}, nil
}

// degradedEngine is the zero-worker fallback: the local simulated
// cluster behind the remote provider's name, flagged on every response.
type degradedEngine struct {
	*localEngine
	prov *remoteProvider
}

// Degraded marks responses served below the requested fleet width.
func (e *degradedEngine) Degraded() bool { return true }

// Stale turns true the moment any worker is usable again: the pool
// retires this slot on its next lease or release, and the lease builds a
// real ring.
func (e *degradedEngine) Stale() bool {
	return len(e.prov.roster.UsableWithCapacity()) > 0
}

// remoteEngine is node 0 of a worker ring: the embedded engine runs the
// local share of every program over the TCP endpoint, and the control
// connections keep the workers' dispatch in lockstep with ours. Reset is
// the embedded distributed node's, which always fails: a poisoned ring
// is retired and the next lease builds a new one.
//
// BindQuery/FinishQuery are called by the single request holding the
// slot lease, so the per-query fields need no locking.
type remoteEngine struct {
	core.Engine
	ep       *comm.TCPEndpoint
	links    []workerLink
	prov     *remoteProvider
	members  []string
	degraded bool

	inFlight bool
	failed   error // sticky: a worker-side failure marks the slot for retirement
}

// Degraded marks a ring formed below the configured fleet width.
func (e *remoteEngine) Degraded() bool { return e.degraded }

// Stale reports whether the roster has diverged from the ring this slot
// was built over: a member died (shrink), or — when the ring is running
// below the configured width — a non-member worker with free slot
// capacity is healthy again (grow). Stale slots are retired by the pool
// on lease/release, never mid-query.
func (e *remoteEngine) Stale() bool {
	for _, m := range e.members {
		if !e.prov.roster.IsUsable(m) {
			return true
		}
	}
	if len(e.members) < len(e.prov.cfg.Workers) {
		for _, addr := range e.prov.roster.UsableWithCapacity() {
			if !slices.Contains(e.members, addr) {
				return true
			}
		}
	}
	return false
}

// BindQuery announces the canonicalized request to every worker — each
// starts the same RunAlgorithm dispatch — and binds the local context
// and tracer. The request context does not propagate to workers; a
// cancelled node 0 tears its endpoint down, which unblocks them.
func (e *remoteEngine) BindQuery(ctx context.Context, q Request, key string, tr *obs.Tracer) error {
	e.Engine.SetBaseContext(ctx)
	if tr != nil {
		e.Engine.SetTracer(tr)
	}
	e.inFlight = true
	for _, l := range e.links {
		if err := l.cc.Send("run", q); err != nil {
			e.failed = fmt.Errorf("announcing query to worker %s: %w", l.addr, err)
			return e.failed
		}
	}
	return nil
}

// FinishQuery collects one done acknowledgement per worker. Any worker
// error — or a worker that cannot answer within the finish timeout —
// poisons the slot: the pool retires it and the next lease builds, which
// re-evaluates the roster.
func (e *remoteEngine) FinishQuery() error {
	if !e.inFlight {
		return e.failed
	}
	e.inFlight = false
	deadline := time.Now().Add(defaultFinishTimeout)
	for _, l := range e.links {
		l.cc.SetDeadline(deadline)
		var d doneMsg
		if err := l.cc.Expect("done", &d); err != nil {
			e.failed = fmt.Errorf("worker %s lost mid-query: %w", l.addr, err)
			e.prov.roster.ObserveFailure(l.addr)
			continue
		}
		if d.Error != "" {
			e.failed = fmt.Errorf("worker %s: %s", l.addr, d.Error)
		}
		//sgvet:ignore commerr clearing a deadline on a dead conn is harmless; the next query's traffic reports it
		l.cc.SetDeadline(time.Time{})
	}
	return e.failed
}

// Close tears the slot down: a best-effort close message lets each
// worker free its engine promptly, then the control connections and the
// data plane drop.
func (e *remoteEngine) Close() error {
	for _, l := range e.links {
		//sgvet:ignore commerr best-effort teardown: the close message is a courtesy, Close below drops the conn regardless
		l.cc.SetDeadline(time.Now().Add(2 * time.Second))
		//sgvet:ignore commerr best-effort teardown: the close message is a courtesy, Close below drops the conn regardless
		l.cc.Send("close", nil)
		l.cc.Close()
	}
	e.ep.Close()
	return e.Engine.Close()
}
