package server

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
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

// deriveVariant is the one derivation of a serving variant from its
// directed base: the front-end's epochs memoize it (the commit-time
// undirected patch and the weight stream reproduce it bit for bit), and
// an sgworker runs it on the base the front-end shipped.
func deriveVariant(base *graph.Graph, v graphVariant) *graph.Graph {
	switch {
	case v == variantUndirected:
		return graph.Symmetrize(base)
	case v == variantWeighted && !base.Weighted():
		return graph.RandomWeights(base, synthWeightSeed)
	}
	return base
}

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
	eng Engine
	at  uint64
}

// PoolConfig configures the engine pool.
type PoolConfig struct {
	// Graphs maps serving names to loaded graphs (each becomes the
	// root epoch of a version chain).
	Graphs map[string]*graph.Graph
	// Providers lists the engine providers slots can be built on,
	// keyed into the pool by Name(). At least one is required.
	Providers []EngineProvider
	// DefaultProvider names the provider used when a request does not
	// pick one; empty selects the first entry of Providers.
	DefaultProvider string
	// SlotsPerEntry caps the idle engines kept per (provider, graph,
	// epoch, variant, mode). It does not cap leases: admission decides
	// how many queries run at once, the pool caches what they release.
	SlotsPerEntry int
	// Retention is how many epochs each graph keeps resolvable
	// (default mutate.DefaultRetention).
	Retention int
	// Tracer is the shared tracer slots record into when no
	// per-request capture is active.
	Tracer *obs.Tracer
}

// Pool caches the warm engines the server leases per request. Slots
// from different providers coexist: the pool key is (provider, graph,
// epoch, variant, mode), so an in-process cluster and a remote worker
// ring for the same graph are separate idle lists, and two epochs of one
// graph never share an engine.
type Pool struct {
	cfg       PoolConfig
	providers map[string]EngineProvider
	defName   string
	graphs    map[string]*graphEntry
	mu        sync.Mutex
	entries   map[entryKey][]*slot // idle engines, at most SlotsPerEntry per key
	nextID    int

	// Stats aggregation over every slot ever built, without keeping a
	// closed slot (its engine, layouts and blocked CSR) reachable: open
	// slots are tracked until retire folds their counters in.
	open           map[*slot]struct{}
	builds         map[string]int // provider → slots ever built
	closedRestarts int64          // Restarts of engines already closed
}

// NewPool validates the configuration and indexes the graphs and
// providers. Engines are not built yet; the first query for each
// (provider, graph, epoch, variant) pays that cost.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("server: pool needs at least one graph")
	}
	if len(cfg.Providers) == 0 {
		return nil, fmt.Errorf("server: pool needs at least one engine provider")
	}
	if cfg.SlotsPerEntry <= 0 {
		cfg.SlotsPerEntry = 1
	}
	p := &Pool{
		cfg:       cfg,
		providers: make(map[string]EngineProvider, len(cfg.Providers)),
		graphs:    make(map[string]*graphEntry, len(cfg.Graphs)),
		entries:   make(map[entryKey][]*slot),
		open:      make(map[*slot]struct{}),
		builds:    make(map[string]int, len(cfg.Providers)),
	}
	for _, prov := range cfg.Providers {
		if _, dup := p.providers[prov.Name()]; dup {
			return nil, fmt.Errorf("server: duplicate engine provider %q", prov.Name())
		}
		p.providers[prov.Name()] = prov
	}
	p.defName = cfg.DefaultProvider
	if p.defName == "" {
		p.defName = cfg.Providers[0].Name()
	}
	if _, ok := p.providers[p.defName]; !ok {
		return nil, fmt.Errorf("server: default provider %q not in provider list", p.defName)
	}
	for name, g := range cfg.Graphs {
		ge, err := newGraphEntry(name, g, cfg.Retention)
		if err != nil {
			return nil, err
		}
		p.graphs[name] = ge
	}
	return p, nil
}

// Entry returns the version chain for a served graph.
func (p *Pool) Entry(name string) (*graphEntry, bool) {
	e, ok := p.graphs[name]
	return e, ok
}

// Info returns the latest epoch's graph-derived defaults for name.
func (p *Pool) Info(name string) (graphInfo, bool) {
	e, ok := p.graphs[name]
	if !ok {
		return graphInfo{}, false
	}
	return e.Latest().Info(), true
}

// GraphNames lists the served graphs in sorted order, so status
// snapshots and logs render identically across calls.
func (p *Pool) GraphNames() []string {
	names := make([]string, 0, len(p.graphs))
	for n := range p.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultProvider names the provider used when a request picks none.
func (p *Pool) DefaultProvider() string { return p.defName }

// HasProvider reports whether the pool can schedule onto name.
func (p *Pool) HasProvider(name string) bool {
	_, ok := p.providers[name]
	return ok
}

// ProviderNames lists the configured providers in sorted order.
func (p *Pool) ProviderNames() []string {
	names := make([]string, 0, len(p.providers))
	for n := range p.providers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lease hands out an engine for (provider, graphName, epoch, variant,
// mode): an idle one when the entry holds any — advanced to the epoch
// first when a commit re-filed it; a stale one, or one that cannot
// advance, is retired on the way, never handed out — and a freshly
// built one otherwise. It never waits: how many leases may be out at
// once is admission's decision, the pool only caches what they leave
// behind. An empty provider selects the pool's default; epoch 0 resolves
// to latest and is pinned to a concrete epoch here, so a commit landing
// during the build cannot move the query to a different version than
// the one reported.
func (p *Pool) Lease(provider, graphName string, epoch uint64, v graphVariant, mode core.Mode) (*slot, error) {
	if provider == "" {
		provider = p.defName
	}
	prov, ok := p.providers[provider]
	if !ok {
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
	return p.build(prov, k, st)
}

// advance moves a re-filed engine up to its key's epoch, st, in one
// Cluster.Advance; it fails when an epoch between left the window.
func (p *Pool) advance(ge *graphEntry, s *slot, st *epochState) error {
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
func (p *Pool) popIdle(k entryKey) *slot {
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
func isStale(e Engine) bool {
	st, ok := e.(interface{ Stale() bool })
	return ok && st.Stale()
}

func (p *Pool) build(prov EngineProvider, k entryKey, st *epochState) (*slot, error) {
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	p.mu.Unlock()

	eng, err := prov.Build(st.buildSpec(k.graph, k.variant, k.mode, id))
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
func (p *Pool) retire(s *slot) {
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

// Release takes a slot back. The engine first completes its request
// protocol (FinishQuery — for remote engines, collecting worker
// acknowledgements). A clean engine of the current epoch is parked for
// the next lease; a poisoned one is Reset in place when the
// implementation supports it and parked too. Everything else — a failed
// finish, a poisoned engine that cannot Reset (a remote ring), a ring the
// roster moved away from, a superseded epoch, an entry already holding
// SlotsPerEntry idle engines — is retired, and the next lease builds:
// over the roster's survivors, at the epoch it asks for. Nothing is
// built here, so the request that broke a slot is answered without
// waiting for a replacement it will never use.
func (p *Pool) Release(s *slot) {
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
// RetireEpochs takes after the commit that moves it: either this sees the
// new window, or the retire pass sees the parked slot.
func (p *Pool) park(s *slot) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.entries[s.entryKey]
	if _, hi := p.graphs[s.graph].store.Window(); s.epoch < hi || len(idle) >= p.cfg.SlotsPerEntry {
		return false
	}
	p.entries[s.entryKey] = append(idle, s)
	return true
}

// RetireEpochs runs after a commit to graphName and leaves no idle list
// of a superseded epoch: an idle in-process engine is re-filed under the
// latest epoch (a map move; the lease that pops it advances it), every
// other one — remote rings, degraded fallbacks, re-filed engines past
// SlotsPerEntry — is closed and counted. Leased slots finish on their
// epoch, and Release retires them on the way back.
func (p *Pool) RetireEpochs(graphName string) int {
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
			if _, local := s.eng.(*localEngine); !local || len(p.entries[latest]) >= p.cfg.SlotsPerEntry {
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

// Close tears down every idle engine and then the providers. Leased
// slots are abandoned; call only after the server has drained. Engines
// are closed, not retired: their checkpoint directories stay, so a
// restarted daemon re-running the same query resumes it.
func (p *Pool) Close() {
	p.mu.Lock()
	for k, idle := range p.entries {
		for _, s := range idle {
			s.eng.Close()
		}
		delete(p.entries, k)
	}
	p.mu.Unlock()
	for _, prov := range p.providers {
		prov.Close()
	}
}

// Restarts sums recovery restarts across every engine the pool ever
// built — the serving-level view of how much chaos the resilience loop
// absorbed. Reading a leased engine's stats mid-run is safe.
func (p *Pool) Restarts() int64 {
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

// Slots reports how many engines the pool has built.
func (p *Pool) Slots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, n := range p.builds {
		total += n
	}
	return total
}

// Fleets collects the roster snapshot of every provider that tracks
// worker health, keyed by provider name, for /statusz.
func (p *Pool) Fleets() map[string]FleetStatus {
	out := make(map[string]FleetStatus)
	for n, prov := range p.providers {
		if f, ok := prov.(interface{ Fleet() FleetStatus }); ok {
			out[n] = f.Fleet()
		}
	}
	return out
}

// ProviderSlots breaks Slots down by provider, for /statusz.
func (p *Pool) ProviderSlots() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.providers))
	for n := range p.providers {
		out[n] = p.builds[n]
	}
	return out
}
