package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Cluster owns a partitioned graph and the transport connecting its
// simulated machines. A Cluster is created once per (graph, options) pair
// and can execute many programs; communication statistics are collected
// per Run.
type Cluster struct {
	g       *graph.Graph
	opts    Options
	part    *partition.Partition
	class   *partition.DegreeClass
	layouts []*partition.Layout

	endpoints []comm.Endpoint
	mem       *comm.MemCluster // non-nil when the cluster owns a memory transport
	// localNode is -1 for in-process clusters (Run spawns every
	// machine); otherwise the single machine this process hosts
	// (distributed mode, NewDistributedNode).
	localNode int

	statsMu   sync.Mutex
	lastStats RunStats
	lastNodes []nodeRunStats

	// poisoned is the error of the run that closed the transport to
	// unblock its survivors; Reset clears it and re-forms the cluster.
	poisonMu sync.Mutex
	poisoned error

	// baseCtx, when set, governs Run: a serving layer leases the
	// cluster, binds the request's deadline here, and every algorithm
	// call inherits it unchanged.
	baseMu  sync.Mutex
	baseCtx context.Context

	ckpt     CheckpointStore // nil when Options.CheckpointEvery == 0
	restarts atomic.Int64    // recovery re-runs performed
	stalls   atomic.Int64    // StallErrors raised by workers
}

// RunStats aggregates one Run's work and traffic across all machines.
// Byte counts are sender-side and include per-message header overhead.
type RunStats struct {
	// EdgesTraversed counts neighbor visits inside signal UDFs — the
	// paper's computation metric (Table 5).
	EdgesTraversed int64
	// VerticesSkipped counts (vertex, block) signal executions skipped
	// because a dependency bit was set by an earlier machine.
	VerticesSkipped int64
	// UpdateBytes / DependencyBytes / ControlBytes break down sent
	// traffic by kind — the paper's communication metric (Table 6).
	UpdateBytes     int64
	DependencyBytes int64
	ControlBytes    int64
	// UpdateMessages / DependencyMessages count sent messages.
	UpdateMessages     int64
	DependencyMessages int64
	// DependencyWait / UpdateWait are the total times machines spent
	// blocked on dependency frames and update messages (summed over
	// machines) — the synchronization costs double buffering and update
	// overlap are designed to hide (§5.3).
	DependencyWait time.Duration
	UpdateWait     time.Duration
	// Supersteps counts edge-processing passes (dense + sparse), summed
	// over machines. Dividing traffic or allocation counters by it
	// yields the per-superstep rates the benchmark harness reports.
	Supersteps int64
	// Elapsed is the wall-clock duration of the Run.
	Elapsed time.Duration
}

// TotalBytes returns all sent traffic.
func (s RunStats) TotalBytes() int64 { return s.UpdateBytes + s.DependencyBytes + s.ControlBytes }

// nodeRunStats is one machine's share of a Run: RunStats' work and
// traffic counters attributed to a single node (Elapsed, which belongs
// to the run, stays zero). Byte counts are sender-side, so adding up the
// nodes yields exactly the run's totals.
type nodeRunStats struct {
	Node int
	RunStats
}

// StatsSnapshot is the cluster's full statistics surface for the most
// recent Run: aggregate totals, per-node shares, per-(node, phase) span
// histograms (when a tracer is attached), and configuration warnings.
type StatsSnapshot struct {
	// Totals aggregates the run across all machines this process
	// hosts (all of them for in-process clusters; this machine only in
	// distributed mode).
	Totals RunStats
	// Nodes holds each hosted machine's share, ordered by node ID.
	// Per-field sums over Nodes equal the corresponding Totals fields.
	Nodes []nodeRunStats
	// Phases summarizes the spans recorded by Options.Tracer since the
	// tracer was created (across runs); empty without a tracer.
	Phases []obs.PhaseSummary
	// Warnings lists configuration adjustments made during validation
	// (e.g. an out-of-range NumBuffers clamped to 1).
	Warnings []string
	// Restarts counts recovery re-runs performed over the cluster's
	// lifetime (Options.MaxRestarts); Stalls counts receives that hit
	// Options.StallTimeout.
	Restarts int64
	Stalls   int64
}

// Add accumulates other into s (for multi-run experiments).
func (s *RunStats) Add(other RunStats) {
	s.EdgesTraversed += other.EdgesTraversed
	s.VerticesSkipped += other.VerticesSkipped
	s.UpdateBytes += other.UpdateBytes
	s.DependencyBytes += other.DependencyBytes
	s.ControlBytes += other.ControlBytes
	s.UpdateMessages += other.UpdateMessages
	s.DependencyMessages += other.DependencyMessages
	s.DependencyWait += other.DependencyWait
	s.UpdateWait += other.UpdateWait
	s.Supersteps += other.Supersteps
	s.Elapsed += other.Elapsed
}

// NewCluster partitions g across opts.NumNodes machines and connects
// them. Close releases the transport. Over caller-supplied
// opts.Endpoints, opts.MaxRestarts must be 0.
func NewCluster(g *graph.Graph, opts Options) (*Cluster, error) {
	if err := opts.validateAndDefault(); err != nil {
		return nil, err
	}
	if opts.Endpoints != nil && opts.MaxRestarts > 0 {
		return nil, errNoReset(opts)
	}
	machines := make([]int, opts.NumNodes)
	for m := range machines {
		machines[m] = m
	}
	c, err := newCluster(g, opts, machines)
	if err != nil {
		return nil, err
	}
	c.localNode = -1
	if opts.Endpoints != nil {
		c.endpoints = opts.Endpoints
		if opts.Fault != nil {
			c.endpoints = opts.Fault.Wrap(c.endpoints)
		}
	} else {
		c.buildMemTransport()
	}
	c.initCheckpoints()
	return c, nil
}

// newCluster is the part of construction every kind of cluster shares:
// chunk the vertices, classify them by the mode's threshold, and lay out
// the listed machines (all of them in process; the one this process
// hosts in distributed mode). opts must already be validated. Endpoints,
// localNode and checkpoints are the caller's to fill in.
func newCluster(g *graph.Graph, opts Options, machines []int) (*Cluster, error) {
	pt, err := partition.NewChunked(g, opts.NumNodes, 0) // 0: partition.DefaultAlpha
	if err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts}
	return c, c.derive(g, pt, machines)
}

// derive sets the cluster's graph and everything laid out from it over
// pt: the degree class and the listed machines' layouts.
func (c *Cluster) derive(g *graph.Graph, pt *partition.Partition, machines []int) error {
	threshold := c.opts.DepThreshold
	if c.opts.Mode == ModeGemini {
		threshold = 0 // classification irrelevant; track-all keeps layouts uniform
	}
	c.g = g // also pins the arrays the layouts' blocks alias
	c.part = pt
	c.class = partition.BuildDegreeClass(g, pt, threshold)
	c.layouts = make([]*partition.Layout, c.opts.NumNodes)
	for _, m := range machines {
		c.layouts[m] = partition.BuildLayout(g, pt, c.class, m)
		// The sparse scan reads the partition-blocked CSR. Like the
		// blocks, it is derived from (graph, partition) alone, so a
		// rebuilt engine over any epoch snapshot lays out identically.
		if err := c.layouts[m].AttachBlocked(g, 0); err != nil {
			return err
		}
	}
	return nil
}

// Advance moves the cluster to g, the next version of its graph, keeping
// its transport. delta names every arc that differs (Snapshot.Effective,
// or several epochs' concatenated). When |V| and the chunk starts hold,
// only the rows at delta's endpoints are derived again and every other
// layout entry shifts; otherwise the layouts are derived afresh. Either
// way the cluster equals NewCluster(g) field for field; after an error
// it is unusable. Must not be called while a run is in progress.
func (c *Cluster) Advance(g *graph.Graph, delta mutate.Batch) error {
	pt, err := partition.NewChunked(g, c.opts.NumNodes, 0)
	if err != nil {
		return err
	}
	touched := make([]graph.VertexID, 0, 2*len(delta.Ops))
	patch := g.NumVertices() == c.g.NumVertices() && slices.Equal(pt.Starts, c.part.Starts)
	for _, m := range delta.Ops {
		// Both endpoints: a symmetrized variant changes at either end.
		touched = append(touched, m.Src, m.Dst)
		patch = patch && (m.Op == mutate.OpAddEdge || m.Op == mutate.OpRemoveEdge)
	}
	if !patch {
		return c.derive(g, pt, c.localNodes())
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	reclassed := c.class.Reclassify(g, c.part, touched)
	for _, m := range c.localNodes() {
		c.layouts[m].Advance(c.g, g, touched, reclassed)
	}
	c.g = g
	return nil
}

// errNoReset refuses MaxRestarts on a cluster that does not own its
// transport. Such a cluster cannot Reset, so its recovery loop could
// only fail, burying the run's typed error (*StallError, a lost peer)
// under the Reset refusal.
func errNoReset(opts Options) error {
	return fmt.Errorf("core: MaxRestarts = %d (flag -max-restarts) needs a cluster-owned transport; over external endpoints or as a distributed node, rebuild the cluster instead", opts.MaxRestarts)
}

// initCheckpoints binds the configured (or default in-memory)
// checkpoint store to this cluster's quorum.
func (c *Cluster) initCheckpoints() {
	if c.opts.CheckpointEvery <= 0 {
		return
	}
	c.ckpt = c.opts.Checkpoints
	if c.ckpt == nil {
		c.ckpt = NewMemCheckpointStore()
	}
	c.ckpt.SetMembers(c.localNodes())
}

// buildMemTransport (re)creates the cluster-owned memory transport,
// layering the fault plan when one is configured. Used at construction
// and by Reset after a poisoned run.
func (c *Cluster) buildMemTransport() {
	c.mem = comm.NewMemClusterWithLink(c.opts.NumNodes, c.opts.Link)
	eps := c.mem.Endpoints()
	if c.opts.Fault != nil {
		eps = c.opts.Fault.Wrap(eps)
	}
	c.endpoints = eps
}

// NewDistributedNode creates this process's view of a genuinely
// distributed cluster: ep connects to opts.NumNodes peers (for example a
// comm.TCPEndpoint built from a shared address list), this process hosts
// machine ep.ID() only, and Run executes the program once for that
// machine. Every process of the cluster must load the same graph and
// call the same programs in the same order; results materialize on the
// node-0 process, and Stats reports this machine's share.
// opts.Endpoints and opts.Link are ignored; opts.MaxRestarts must be 0.
func NewDistributedNode(g *graph.Graph, opts Options, ep comm.Endpoint) (*Cluster, error) {
	if err := opts.validateAndDefault(); err != nil {
		return nil, err
	}
	if ep.N() != opts.NumNodes {
		return nil, fmt.Errorf("core: endpoint knows %d nodes, options say %d", ep.N(), opts.NumNodes)
	}
	if opts.MaxRestarts > 0 {
		return nil, errNoReset(opts)
	}
	// Only the local machine's layout and endpoint exist in this
	// process — the memory footprint a real cluster member would have.
	id := int(ep.ID())
	c, err := newCluster(g, opts, []int{id})
	if err != nil {
		return nil, err
	}
	c.localNode = id
	if opts.Fault != nil {
		ep = opts.Fault.WrapOne(ep)
	}
	c.endpoints = make([]comm.Endpoint, opts.NumNodes)
	c.endpoints[id] = ep
	c.initCheckpoints()
	return c, nil
}

// Graph returns the cluster's graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Options returns the cluster's configuration.
func (c *Cluster) Options() Options { return c.opts }

// Partition returns the vertex partition.
func (c *Cluster) Partition() *partition.Partition { return c.part }

// Close releases the transport if the cluster owns it. Externally
// supplied endpoints are left open for the caller to close.
func (c *Cluster) Close() error {
	if c.mem != nil {
		return c.mem.Close()
	}
	return nil
}

// Run executes prog SPMD-style: one invocation per machine, concurrently,
// each with its own Worker. It blocks until every machine finishes and
// returns the first error. Statistics for the run are available from
// Stats afterwards.
//
// The run starts from a cleared checkpoint store when the store is the
// default in-memory one (a caller-supplied Options.Checkpoints is the
// caller's to clear) and is governed by the SetBaseContext context:
// cancelling it poisons the transport, every blocked worker unwinds, and
// Run returns the context's error.
//
// A failed run poisons the cluster — the transport is closed so the
// surviving machines' pending receives return instead of hanging — and
// subsequent Runs return a *PoisonedError until Reset re-forms it. With
// Options.MaxRestarts > 0 a recoverable failure (stall, peer loss,
// injected fault or crash — see IsRecoverable) is instead followed by a
// Reset and a re-run, up to MaxRestarts times; a program that declared
// its superstep state (Worker.Checkpoint) resumes from the last committed
// snapshot. Stats().Restarts counts the re-runs.
func (c *Cluster) Run(prog func(w *Worker) error) error {
	ctx := c.base()
	if c.ckpt != nil && c.opts.Checkpoints == nil {
		c.ckpt.Clear() // a fresh program must not restore its predecessor's state
	}
	for attempt := 0; ; attempt++ {
		err := c.runOnce(ctx, prog)
		if err == nil || ctx.Err() != nil || !IsRecoverable(err) || attempt >= c.opts.MaxRestarts {
			return err
		}
		start := time.Now()
		if c.Reset() != nil {
			return err // unreachable: construction refuses MaxRestarts without an owned transport
		}
		c.restarts.Add(1)
		if tr := c.tracer(); tr != nil {
			tr.Record(0, obs.PhaseRecovery, attempt, -1, -1, start, time.Since(start))
		}
	}
}

// SetBaseContext installs the context that governs Run (nil restores the
// default, context.Background). A serving layer leases the cluster,
// binds the request's deadline here before dispatching an algorithm —
// whose Run calls then inherit the deadline — and clears it on release.
// Must not be called while a run is in progress.
func (c *Cluster) SetBaseContext(ctx context.Context) {
	c.baseMu.Lock()
	c.baseCtx = ctx
	c.baseMu.Unlock()
}

// base returns the installed base context, defaulting to Background.
func (c *Cluster) base() context.Context {
	c.baseMu.Lock()
	defer c.baseMu.Unlock()
	if c.baseCtx != nil {
		return c.baseCtx
	}
	return context.Background()
}

// Poisoned returns the error of the failed run that poisoned the
// cluster, or nil when the cluster is healthy. A pool that leases
// clusters checks it on release: a poisoned cluster needs Reset (or
// replacement) before it can serve again.
func (c *Cluster) Poisoned() error {
	c.poisonMu.Lock()
	defer c.poisonMu.Unlock()
	return c.poisoned
}

// SetTracer replaces the tracer subsequent runs record into — the
// per-request trace-capture hook: a serving layer attaches a fresh
// capturing tracer for one query and restores the shared one after.
// Must not be called while a run is in progress.
func (c *Cluster) SetTracer(tr *obs.Tracer) {
	c.statsMu.Lock()
	c.opts.Tracer = tr
	c.statsMu.Unlock()
}

// tracer returns the current tracer (nil is a valid disabled tracer).
func (c *Cluster) tracer() *obs.Tracer {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.opts.Tracer
}

// Reset re-forms a poisoned cluster: the old transport is torn down, a
// fresh one is built (re-applying the fault plan, whose one-shot crash
// and counters carry over), and the poison mark is cleared. Only
// clusters that own their memory transport can be reset; distributed
// nodes and externally supplied endpoints must be re-formed by the
// caller, who owns them.
func (c *Cluster) Reset() error {
	if c.mem == nil {
		return fmt.Errorf("core: Reset needs a cluster-owned memory transport; re-form external endpoints and build a new cluster instead")
	}
	c.mem.Close()
	c.buildMemTransport()
	c.poisonMu.Lock()
	c.poisoned = nil
	c.poisonMu.Unlock()
	return nil
}

// runOnce is one attempt: it does not clear checkpoints, so a recovery
// re-run can restore what the failed attempt saved.
func (c *Cluster) runOnce(ctx context.Context, prog func(w *Worker) error) error {
	c.poisonMu.Lock()
	if cause := c.poisoned; cause != nil {
		c.poisonMu.Unlock()
		return &PoisonedError{Cause: cause}
	}
	c.poisonMu.Unlock()
	nodes := c.localNodes()
	before := make([]RunStats, c.opts.NumNodes)
	for _, i := range nodes {
		before[i] = sentTraffic(c.endpoints[i].Stats())
	}

	workers := make([]*Worker, c.opts.NumNodes)
	errs := make([]error, c.opts.NumNodes)
	start := time.Now()
	done := make(chan int, len(nodes))
	runTracer := c.tracer()
	for _, i := range nodes {
		w := &Worker{
			cluster: c,
			id:      i,
			ep:      c.endpoints[i],
			layout:  c.layouts[i],
			tr:      runTracer,
		}
		w.coll = deadlined{Endpoint: w.ep, w: w}
		workers[i] = w
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("core: node %d panicked: %v", i, r)
				}
				done <- i
			}()
			errs[i] = prog(workers[i])
		}(i)
	}
	// A failed worker (or a cancelled context) would leave its peers
	// blocked in Recv; poison the transport so every pending receive
	// returns. The cluster is unusable until Reset re-forms it.
	var poisonOnce sync.Once
	poison := func(cause error) {
		poisonOnce.Do(func() {
			c.poisonMu.Lock()
			c.poisoned = cause
			c.poisonMu.Unlock()
			for _, j := range nodes {
				c.endpoints[j].Close()
			}
		})
	}
	// The cancel watcher may poison only while a node is still running.
	// Once every node has reported, the caller is about to hand the
	// cluster back (a pool parks it on a free list); a cancellation that
	// lands after that — net/http cancels a request's context as its
	// handler returns — must find the watcher disarmed. The mutex orders
	// the two: a watcher already poisoning finishes before finished is
	// set, and one that fires later sees it.
	var watch sync.Mutex
	finished := false
	stopWatch := context.AfterFunc(ctx, func() {
		watch.Lock()
		defer watch.Unlock()
		if !finished {
			poison(ctx.Err())
		}
	})
	for k := 0; k < len(nodes); k++ {
		i := <-done
		if errs[i] != nil {
			poison(errs[i])
		}
	}
	watch.Lock()
	finished = true
	watch.Unlock()
	stopWatch()
	elapsed := time.Since(start)

	var stats RunStats
	nodeStats := make([]nodeRunStats, 0, len(nodes))
	for _, i := range nodes {
		w := workers[i]
		ns := sentTraffic(c.endpoints[i].Stats())
		ns.UpdateBytes -= before[i].UpdateBytes
		ns.UpdateMessages -= before[i].UpdateMessages
		ns.DependencyBytes -= before[i].DependencyBytes
		ns.DependencyMessages -= before[i].DependencyMessages
		ns.ControlBytes -= before[i].ControlBytes
		ns.EdgesTraversed = w.edges.Load()
		ns.VerticesSkipped = w.skipped.Load()
		ns.DependencyWait = time.Duration(w.depWait.Load())
		ns.UpdateWait = time.Duration(w.updWait.Load())
		ns.Supersteps = int64(w.densePass + w.sparsePass)
		nodeStats = append(nodeStats, nodeRunStats{Node: i, RunStats: ns})
		stats.Add(ns)
	}
	stats.Elapsed = elapsed
	c.statsMu.Lock()
	c.lastStats = stats
	c.lastNodes = nodeStats
	c.statsMu.Unlock()

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled: %w", err)
	}
	for _, i := range nodes {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// sentTraffic reads an endpoint's lifetime sender-side counters into the
// RunStats fields they feed; a run's share is the difference of two.
func sentTraffic(st *comm.Stats) RunStats {
	return RunStats{
		UpdateBytes:        st.SentBytes(comm.KindUpdate),
		UpdateMessages:     st.SentMessages(comm.KindUpdate),
		DependencyBytes:    st.SentBytes(comm.KindDependency),
		DependencyMessages: st.SentMessages(comm.KindDependency),
		ControlBytes:       st.SentBytes(comm.KindControl),
	}
}

// localNodes lists the machine IDs this process hosts.
func (c *Cluster) localNodes() []int {
	if c.localNode >= 0 {
		return []int{c.localNode}
	}
	out := make([]int, c.opts.NumNodes)
	for i := range out {
		out[i] = i
	}
	return out
}

// Stats returns the full statistics snapshot for the most recent Run:
// aggregate totals, per-node shares, tracer phase histograms, and
// configuration warnings. The snapshot is a copy, safe to retain.
func (c *Cluster) Stats() StatsSnapshot {
	c.statsMu.Lock()
	totals := c.lastStats
	nodes := make([]nodeRunStats, len(c.lastNodes))
	copy(nodes, c.lastNodes)
	tr := c.opts.Tracer
	c.statsMu.Unlock()
	var warnings []string
	if len(c.opts.warnings) > 0 {
		warnings = append(warnings, c.opts.warnings...)
	}
	return StatsSnapshot{
		Totals:   totals,
		Nodes:    nodes,
		Phases:   tr.Summaries(),
		Warnings: warnings,
		Restarts: c.restarts.Load(),
		Stalls:   c.stalls.Load(),
	}
}

// RegisterMetrics exposes the cluster's live transport counters in r:
// per-node, per-kind sent/received bytes and frame counts, per-link
// traffic, simulated-link queueing delay, and configuration warnings.
// The registered gauges sample the endpoints at snapshot time, so a
// /debug/metrics scrape during a Run sees traffic as it happens.
func (c *Cluster) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Set("config.nodes", c.opts.NumNodes)
	r.Set("config.mode", c.opts.Mode.String())
	r.Set("config.buffers", c.opts.NumBuffers)
	r.Set("config.workers", c.opts.Workers)
	r.Set("config.warnings", append([]string(nil), c.opts.warnings...))
	r.RegisterTracer("phases", c.tracer())
	r.RegisterInt("resilience.restarts", func() int64 { return c.restarts.Load() })
	r.RegisterInt("resilience.stalls", func() int64 { return c.stalls.Load() })
	if c.ckpt != nil {
		ck := c.ckpt
		r.RegisterInt("resilience.checkpoint.saved", func() int64 { return ck.Stats().Saved })
		r.RegisterInt("resilience.checkpoint.commits", func() int64 { return ck.Stats().Commits })
		r.RegisterInt("resilience.checkpoint.restores", func() int64 { return ck.Stats().Restores })
		r.RegisterInt("resilience.checkpoint.committed_iter", func() int64 { return int64(ck.Stats().CommittedIter) })
	}
	if plan := c.opts.Fault; plan != nil {
		r.RegisterInt("fault.delays", func() int64 { return plan.Counters().Delays })
		r.RegisterInt("fault.send_errs", func() int64 { return plan.Counters().SendErrs })
		r.RegisterInt("fault.drops", func() int64 { return plan.Counters().Drops })
		r.RegisterInt("fault.crashes", func() int64 { return plan.Counters().Crashes })
	}
	for _, i := range c.localNodes() {
		st := c.endpoints[i].Stats()
		for _, kind := range []comm.Kind{comm.KindUpdate, comm.KindDependency, comm.KindControl} {
			kind := kind
			prefix := fmt.Sprintf("comm.node%d.%s", i, kind)
			r.RegisterInt(prefix+".sent_bytes", func() int64 { return st.SentBytes(kind) })
			r.RegisterInt(prefix+".sent_frames", func() int64 { return st.SentMessages(kind) })
			r.RegisterInt(prefix+".recv_bytes", func() int64 { return st.ReceivedBytes(kind) })
			r.RegisterInt(prefix+".recv_frames", func() int64 { return st.ReceivedMessages(kind) })
		}
		r.RegisterInt(fmt.Sprintf("comm.node%d.link_queue_delay_ns", i),
			func() int64 { return int64(st.QueueDelay()) })
		for peer := 0; peer < c.opts.NumNodes; peer++ {
			if peer == i {
				continue
			}
			peer := peer
			link := fmt.Sprintf("comm.link.%d-%d", i, peer)
			r.RegisterInt(link+".sent_bytes", func() int64 { return st.Peer(comm.NodeID(peer)).SentBytes })
			r.RegisterInt(link+".sent_frames", func() int64 { return st.Peer(comm.NodeID(peer)).SentMessages })
		}
	}
}
