package server

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/mutate"
)

// graphVariant selects which derived form of a loaded graph an
// algorithm runs on. Variants are built once per epoch, on first use,
// and shared by every pool slot at that epoch.
type graphVariant int

const (
	variantDirected   graphVariant = iota // the graph as loaded
	variantUndirected                     // Symmetrize(g), for mis/kcore/kmeans
	variantWeighted                       // RandomWeights(g, synthWeightSeed) when unweighted, for sssp
)

// synthWeightSeed seeds the weights SSSP runs on when the served graph
// carries none.
const synthWeightSeed = 7

func (v graphVariant) String() string {
	switch v {
	case variantUndirected:
		return "undirected"
	case variantWeighted:
		return "weighted"
	default:
		return "directed"
	}
}

// graphInfo carries the graph-derived defaults canonicalization needs,
// per epoch.
type graphInfo struct {
	vertices    int
	edges       int64
	defaultRoot int
	weighted    bool // the base graph carries real weights
	epoch       uint64
}

// entryKey identifies one idle list. Slots are keyed by epoch, so a
// commit naturally drains old-epoch entries while in-flight queries
// finish on the version they started on. An entry exists only while it
// holds idle engines: the first lease of a key builds (paying partition
// and, for remote providers, graph-shipping cost), later leases reuse
// what earlier ones released.
type entryKey struct {
	provider string
	graph    string
	epoch    uint64
	variant  graphVariant
	mode     core.Mode
}

// slot is one leased unit: a warm engine plus the key it is filed
// under, so Release can route it home without the caller re-stating it.
// at is the epoch of the engine's graph, older than the key's while a
// commit's re-filing awaits the next lease's advance.
type slot struct {
	entryKey
	eng engine
	at  uint64
}

// pool caches the warm engines the server leases per request. It
// builds on two providers: "local", in-process clusters from
// newLocalEngine, always; "remote", rings of sgworker processes, when
// the server has Workers (remote is nil otherwise). Their slots coexist:
// the pool key is (provider, graph, epoch, variant, mode), so an
// in-process cluster and a remote worker ring for the same graph are
// separate idle lists, and two epochs of one graph never share an
// engine.
type pool struct {
	cfg     Config // the server's, defaults filled; MaxInflight caps each idle list
	remote  *remoteProvider
	graphs  map[string]*graphEntry
	mu      sync.Mutex
	entries map[entryKey][]*slot // idle engines, at most MaxInflight per key
	nextID  int

	// Stats aggregation over every slot ever built, without keeping a
	// closed slot (its engine, layouts and blocked CSR) reachable: open
	// slots are tracked until retire folds their counters in.
	open           map[*slot]struct{}
	builds         map[string]int // provider → slots ever built
	closedRestarts int64          // Restarts of engines already closed
}

// newPool indexes cfg's graphs and, with cfg.Workers, starts the remote
// provider's roster. Engines are not built yet; the first query for
// each (provider, graph, epoch, variant) pays that cost. cfg carries
// New's defaults.
func newPool(cfg Config) (*pool, error) {
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("server: pool needs at least one graph")
	}
	p := &pool{
		cfg:     cfg,
		graphs:  make(map[string]*graphEntry, len(cfg.Graphs)),
		entries: make(map[entryKey][]*slot),
		open:    make(map[*slot]struct{}),
		builds:  make(map[string]int, 2),
	}
	for name, g := range cfg.Graphs {
		store, err := mutate.NewStore(g, cfg.Retention)
		if err != nil {
			return nil, fmt.Errorf("server: versioning %s: %w", name, err)
		}
		p.graphs[name] = newGraphEntry(name, store)
	}
	if len(cfg.Workers) > 0 {
		p.remote = newRemoteProvider(cfg, p.graphs)
	}
	return p, nil
}

// entry returns the version chain for a served graph.
func (p *pool) entry(name string) (*graphEntry, bool) {
	e, ok := p.graphs[name]
	return e, ok
}

// info returns the latest epoch's graph-derived defaults for name.
func (p *pool) info(name string) (graphInfo, bool) {
	e, ok := p.graphs[name]
	if !ok {
		return graphInfo{}, false
	}
	return e.Latest().Info(), true
}

// graphNames lists the served graphs in sorted order, so status
// snapshots and logs render identically across calls.
func (p *pool) graphNames() []string {
	names := make([]string, 0, len(p.graphs))
	for n := range p.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// providers names the providers a request may pick, in sorted order.
func (p *pool) providers() []string {
	if p.remote != nil {
		return []string{"local", "remote"}
	}
	return []string{"local"}
}

// defaultProvider names the provider used when a request picks none:
// the worker ring when there is one.
func (p *pool) defaultProvider() string {
	if p.remote != nil {
		return "remote"
	}
	return "local"
}

// lease hands out an engine for (provider, graphName, epoch, variant,
// mode): an idle one when the entry holds any — advanced to the epoch
// first when a commit re-filed it; a stale one, or one that cannot
// advance, is retired on the way, never handed out — and a freshly
// built one otherwise. It never waits: how many leases may be out at
// once is admission's decision, the pool only caches what they leave
// behind. An empty provider selects the pool's default; epoch 0 resolves
// to latest and is pinned to a concrete epoch here, so a commit landing
// during the build cannot move the query to a different version than
// the one reported.
func (p *pool) lease(provider, graphName string, epoch uint64, v graphVariant, mode core.Mode) (*slot, error) {
	if provider == "" {
		provider = p.defaultProvider()
	}
	if !slices.Contains(p.providers(), provider) {
		return nil, fmt.Errorf("unknown engine provider %q", provider)
	}
	ge, ok := p.graphs[graphName]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q", graphName)
	}
	st, err := ge.Resolve(epoch)
	if err != nil {
		return nil, err
	}
	k := entryKey{provider: provider, graph: graphName, epoch: st.Epoch(), variant: v, mode: mode}
	for s := p.popIdle(k); s != nil; s = p.popIdle(k) {
		if !isStale(s.eng) && p.advance(ge, s, st) == nil {
			return s, nil
		}
		p.retire(s)
	}
	return p.build(k, st)
}

// advance moves a re-filed engine up to its key's epoch, st, in one
// Cluster.Advance; it fails when an epoch between left the window.
func (p *pool) advance(ge *graphEntry, s *slot, st *epochState) error {
	if s.at == s.epoch {
		return nil
	}
	delta, err := ge.effectiveSince(s.at, s.epoch)
	if err != nil {
		return err
	}
	if err := s.eng.(*localEngine).Engine.(*core.Cluster).Advance(st.Graph(s.variant), delta); err != nil {
		return err
	}
	s.at = s.epoch
	return nil
}

// popIdle takes one idle engine off k's entry, deleting the entry with
// its last one: an entry exists only while it holds idle engines.
func (p *pool) popIdle(k entryKey) *slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.entries[k]
	n := len(idle)
	if n == 0 {
		return nil
	}
	s := idle[n-1]
	idle[n-1] = nil // the backing array must not keep a leased slot reachable
	if n == 1 {
		delete(p.entries, k)
	} else {
		p.entries[k] = idle[:n-1]
	}
	return s
}

// isStale asks an engine whether the world it was built for has moved
// on — for remote engines, whether the worker roster diverged from the
// ring members (a member died, or a rejoined worker could widen the
// ring). Engines without the hook are never stale.
func isStale(e engine) bool {
	st, ok := e.(interface{ Stale() bool })
	return ok && st.Stale()
}

func (p *pool) build(k entryKey, st *epochState) (*slot, error) {
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	p.mu.Unlock()

	spec := st.buildSpec(k.graph, k.variant, k.mode, id)
	var eng engine
	var err error
	if k.provider == "remote" {
		eng, err = p.remote.build(spec)
	} else {
		eng, err = newLocalEngine(spec, p.cfg.Engine, p.cfg.Tracer, p.cfg.CheckpointRoot)
	}
	if err != nil {
		return nil, fmt.Errorf("provider %s: %w", k.provider, err)
	}
	s := &slot{entryKey: k, eng: eng, at: k.epoch}
	p.mu.Lock()
	p.open[s] = struct{}{}
	p.builds[s.provider]++
	p.mu.Unlock()
	return s, nil
}

// retire closes the engine of a slot that will never be leased again,
// removes what it kept on disk (slot ids are pool-unique, so nothing
// would ever read its checkpoint directory again), and stops tracking it,
// keeping only what the "ever built" statistics need.
func (p *pool) retire(s *slot) {
	restarts := s.eng.Stats().Restarts
	p.mu.Lock()
	delete(p.open, s)
	p.closedRestarts += restarts
	p.mu.Unlock()
	s.eng.Close()
	if d, ok := s.eng.(interface{ removeStore() }); ok {
		d.removeStore()
	}
}

// release takes a slot back. The engine first completes its request
// protocol (FinishQuery — for remote engines, collecting worker
// acknowledgements). A clean engine of the current epoch is parked for
// the next lease; a poisoned one is Reset in place when the
// implementation supports it and parked too. Everything else — a failed
// finish, a poisoned engine that cannot Reset (a remote ring), a ring the
// roster moved away from, a superseded epoch, an entry already holding
// MaxInflight idle engines — is retired, and the next lease builds:
// over the roster's survivors, at the epoch it asks for. Nothing is
// built here, so the request that broke a slot is answered without
// waiting for a replacement it will never use.
func (p *pool) release(s *slot) {
	fit := s.eng.FinishQuery() == nil
	s.eng.SetBaseContext(nil)
	s.eng.SetTracer(p.cfg.Tracer)
	fit = fit && !isStale(s.eng)
	if fit && s.eng.Poisoned() != nil {
		fit = s.eng.Reset() == nil
	}
	if !fit || !p.park(s) {
		p.retire(s)
	}
}

// park puts s on its entry's idle list unless its epoch has been
// superseded or the list is full. The window is read under mu, which
// retireEpochs takes after the commit that moves it: either this sees the
// new window, or the retire pass sees the parked slot.
func (p *pool) park(s *slot) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.entries[s.entryKey]
	if _, hi := p.graphs[s.graph].store.Window(); s.epoch < hi || len(idle) >= p.cfg.MaxInflight {
		return false
	}
	p.entries[s.entryKey] = append(idle, s)
	return true
}

// retireEpochs runs after a commit to graphName and leaves no idle list
// of a superseded epoch: an idle in-process engine is re-filed under the
// latest epoch (a map move; the lease that pops it advances it), every
// other one — remote rings, degraded fallbacks, re-filed engines past
// MaxInflight — is closed and counted. Leased slots finish on their
// epoch, and Release retires them on the way back.
func (p *pool) retireEpochs(graphName string) int {
	ge, ok := p.graphs[graphName]
	if !ok {
		return 0
	}
	_, hi := ge.store.Window()
	var victims []*slot
	p.mu.Lock()
	for k, idle := range p.entries {
		if k.graph != graphName || k.epoch >= hi {
			continue
		}
		delete(p.entries, k)
		latest := k
		latest.epoch = hi
		for _, s := range idle {
			if _, local := s.eng.(*localEngine); !local || len(p.entries[latest]) >= p.cfg.MaxInflight {
				victims = append(victims, s)
				continue
			}
			s.entryKey = latest
			p.entries[latest] = append(p.entries[latest], s)
		}
	}
	p.mu.Unlock()
	for _, s := range victims {
		p.retire(s)
	}
	return len(victims)
}

// close tears down every idle engine and then the remote provider's
// roster. Leased slots are abandoned; call only after the server has
// drained. Engines are closed, not retired: their checkpoint
// directories stay, so a restarted daemon re-running the same query
// resumes it.
func (p *pool) close() {
	p.mu.Lock()
	for k, idle := range p.entries {
		for _, s := range idle {
			s.eng.Close()
		}
		delete(p.entries, k)
	}
	p.mu.Unlock()
	if p.remote != nil {
		p.remote.close()
	}
}

// restarts sums recovery restarts across every engine the pool ever
// built — the serving-level view of how much chaos the resilience loop
// absorbed. Reading a leased engine's stats mid-run is safe.
func (p *pool) restarts() int64 {
	p.mu.Lock()
	total := p.closedRestarts
	open := make([]*slot, 0, len(p.open))
	for s := range p.open {
		open = append(open, s)
	}
	p.mu.Unlock()
	for _, s := range open {
		total += s.eng.Stats().Restarts
	}
	return total
}

// slots reports how many engines the pool has built.
func (p *pool) slots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, n := range p.builds {
		total += n
	}
	return total
}

// providerSlots breaks slots down by provider, for /statusz.
func (p *pool) providerSlots() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, 2)
	for _, n := range p.providers() {
		out[n] = p.builds[n]
	}
	return out
}
