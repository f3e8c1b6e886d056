package server

import (
	"context"
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
	variantWeighted                       // RandomWeights(g, 7) when unweighted, for sssp
)

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

// slot is one leased unit: a warm engine plus the coordinates it was
// built for, so Release can route it home without the caller re-stating
// them.
type slot struct {
	eng      Engine
	provider string
	graph    string
	epoch    uint64
	variant  graphVariant
	mode     core.Mode
	id       int
}

// entryKey identifies one free list: slots are keyed by epoch, so a
// commit naturally drains old-epoch entries while in-flight queries
// finish on the version they started on.
type entryKey struct {
	provider string
	graph    string
	epoch    uint64
	variant  graphVariant
	mode     core.Mode
}

// poolEntry is the free list for one (provider, graph, epoch, variant,
// mode) tuple. Engines are built lazily — the first lease pays
// partition (and, for remote providers, graph-shipping) cost, later
// leases reuse warm slots — up to the pool's per-entry cap.
type poolEntry struct {
	free  chan *slot
	built int // slots counted against the cap, leased or free; guarded by Pool.mu
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
	// SlotsPerEntry caps concurrent engines per (provider, graph,
	// epoch, variant, mode).
	SlotsPerEntry int
	// Retention is how many epochs each graph keeps resolvable
	// (default mutate.DefaultRetention).
	Retention int
	// Tracer is the shared tracer slots record into when no
	// per-request capture is active.
	Tracer *obs.Tracer
}

// Pool owns the warm engines the server leases per request. Slots from
// different providers coexist: the pool key is (provider, graph, epoch,
// variant, mode), so an in-process cluster and a remote worker ring for
// the same graph are separate free lists, and two epochs of one graph
// never share an engine.
type Pool struct {
	cfg       PoolConfig
	providers map[string]EngineProvider
	defName   string
	graphs    map[string]*graphEntry
	mu        sync.Mutex
	entries   map[entryKey]*poolEntry
	nextID    int

	// Stats aggregation over every slot ever built, without keeping a
	// closed slot (its engine, layouts and blocked CSR) reachable: open
	// slots are tracked until retire folds their counters in.
	open           map[*slot]struct{}
	built          map[string]int // provider → slots ever built
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
		entries:   make(map[entryKey]*poolEntry),
		open:      make(map[*slot]struct{}),
		built:     make(map[string]int, len(cfg.Providers)),
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

// reserve looks the entry for k up — creating it on first use — and, in
// the same critical section, either takes a free slot from it or, when
// the entry has spare capacity, counts one more slot against its cap for
// the caller to build. Doing the three together is what lets unbuilt
// delete a superseded entry without stranding a concurrent lease on it.
func (p *Pool) reserve(k entryKey) (e *poolEntry, s *slot, build bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[k]
	if !ok {
		e = &poolEntry{free: make(chan *slot, p.cfg.SlotsPerEntry)}
		p.entries[k] = e
	}
	select {
	case s = <-e.free:
	default:
		if e.built < p.cfg.SlotsPerEntry {
			e.built++
			build = true
		}
	}
	return e, s, build
}

// unbuilt takes one slot that is no longer (or was never) built off k's
// count. An entry of a superseded epoch left with nothing built and
// nothing free is deleted, so a server under mutation holds entries for
// live epochs only; nothing re-creates it but a lease pinning its epoch.
func (p *Pool) unbuilt(k entryKey) {
	superseded := false
	if ge := p.graphs[k.graph]; ge != nil {
		_, hi := ge.store.Window()
		superseded = k.epoch < hi
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[k] // present: the slot being taken off still counts in it
	e.built--
	if superseded && e.built == 0 && len(e.free) == 0 {
		delete(p.entries, k)
	}
}

func keyOf(s *slot) entryKey {
	return entryKey{provider: s.provider, graph: s.graph, epoch: s.epoch, variant: s.variant, mode: s.mode}
}

// Lease hands out a warm engine for (provider, graphName, epoch,
// variant), building one if the entry has spare capacity, otherwise
// blocking until a slot is released or ctx is done. An empty provider
// selects the pool's default. epoch 0 resolves to latest; it is pinned
// to a concrete epoch here, before any blocking, so a commit mid-wait
// cannot move the query to a different version than the one reported.
func (p *Pool) Lease(ctx context.Context, provider, graphName string, epoch uint64, v graphVariant, mode core.Mode) (*slot, error) {
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
	epoch = st.Epoch()
	k := entryKey{provider: provider, graph: graphName, epoch: epoch, variant: v, mode: mode}
	e, s, build := p.reserve(k)
	switch {
	case s != nil:
		return p.freshen(prov, ge, s)
	case build:
		s, err := p.build(prov, ge, epoch, v, mode)
		if err != nil {
			p.unbuilt(k)
			return nil, err
		}
		return s, nil
	}
	select {
	case s := <-e.free:
		return p.freshen(prov, ge, s)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// isStale asks an engine whether the world it was built for has moved
// on — for remote engines, whether the worker roster diverged from the
// ring members (a member died, or a rejoined worker could widen the
// ring). Engines without the hook are never stale.
func isStale(e Engine) bool {
	st, ok := e.(interface{ Stale() bool })
	return ok && st.Stale()
}

// freshen rebuilds a stale free-list slot before handing it out, so a
// lease taken after a worker rejoined runs at full width — and one
// taken after a worker died does not pay a mid-query poisoning. Fresh
// slots pass through untouched.
func (p *Pool) freshen(prov EngineProvider, ge *graphEntry, s *slot) (*slot, error) {
	if !isStale(s.eng) {
		return s, nil
	}
	p.retire(s)
	fresh, err := p.build(prov, ge, s.epoch, s.variant, s.mode)
	if err != nil {
		p.unbuilt(keyOf(s))
		return nil, err
	}
	return fresh, nil
}

func (p *Pool) build(prov EngineProvider, ge *graphEntry, epoch uint64, v graphVariant, mode core.Mode) (*slot, error) {
	st, err := ge.Resolve(epoch)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	p.mu.Unlock()

	eng, err := prov.Build(st.buildSpec(ge.name, v, mode, id))
	if err != nil {
		return nil, fmt.Errorf("provider %s: %w", prov.Name(), err)
	}
	s := &slot{eng: eng, provider: prov.Name(), graph: ge.name, epoch: st.Epoch(), variant: v, mode: mode, id: id}
	p.mu.Lock()
	p.open[s] = struct{}{}
	p.built[s.provider]++
	p.mu.Unlock()
	return s, nil
}

// retire closes a slot's engine and stops tracking it, keeping only
// what the "ever built" statistics need.
func (p *Pool) retire(s *slot) {
	restarts := s.eng.Stats().Restarts
	p.mu.Lock()
	delete(p.open, s)
	p.closedRestarts += restarts
	p.mu.Unlock()
	s.eng.Close()
}

// Release returns the slot to its free list. The engine first completes
// its request protocol (FinishQuery — for remote engines, collecting
// worker acknowledgements); a poisoned or finish-failed engine is Reset
// in place when the implementation supports it, and rebuilt from
// scratch through its provider otherwise — so the pool never recycles a
// broken slot, and a dead remote worker triggers a rebuild that
// re-evaluates the roster and re-forms the ring over the survivors.
// A slot whose epoch has been superseded is closed instead of pooled:
// the query that held it finished on the version it started on, and
// the next lease builds at the epoch it asks for.
func (p *Pool) Release(s *slot) {
	finishErr := s.eng.FinishQuery()
	s.eng.SetBaseContext(nil)
	s.eng.SetTracer(p.cfg.Tracer)

	if ge := p.graphs[s.graph]; ge != nil {
		if _, hi := ge.store.Window(); s.epoch < hi {
			// Uncounted before the engine closes: a lease pinning this
			// epoch meanwhile must see the spare capacity and build, not
			// queue for a slot that is not coming back.
			p.unbuilt(keyOf(s))
			p.retire(s)
			return
		}
	}

	rebuild := false
	if finishErr != nil || s.eng.Poisoned() != nil {
		if err := s.eng.Reset(); err != nil || finishErr != nil {
			rebuild = true
		}
	} else if isStale(s.eng) {
		// The slot is healthy but the roster moved under it (worker
		// died or rejoined while this query ran): rebuild at current
		// width instead of parking a stale ring on the free list.
		rebuild = true
	}
	if rebuild {
		p.retire(s)
		prov := p.providers[s.provider]
		ge := p.graphs[s.graph]
		var fresh *slot
		var berr error
		if prov != nil && ge != nil {
			fresh, berr = p.build(prov, ge, s.epoch, s.variant, s.mode)
		} else {
			berr = fmt.Errorf("slot %d has no provider/graph to rebuild from", s.id)
		}
		if berr != nil {
			// Capacity shrinks by one slot; the next lease with
			// spare room rebuilds it.
			p.unbuilt(keyOf(s))
			return
		}
		s = fresh
	}
	// The slot still counts against its entry's cap, and an entry with
	// anything built is never deleted, so the entry is there.
	p.mu.Lock()
	e := p.entries[keyOf(s)]
	p.mu.Unlock()
	select {
	case e.free <- s:
	default:
		// Free list full: a replacement was built while this slot was
		// out (can't happen in the current accounting, but never block
		// a release).
		p.retire(s)
	}
}

// RetireEpochs drains and closes every idle slot of graphName built
// for an epoch older than the latest, reclaiming engines (and remote
// worker slots) the new version obsoletes. Leased slots are untouched:
// their queries finish on the epoch they started on, and Release
// closes them on the way back.
func (p *Pool) RetireEpochs(graphName string) int {
	ge, ok := p.graphs[graphName]
	if !ok {
		return 0
	}
	_, hi := ge.store.Window()
	// Slots leave the free list and the count in one critical section
	// with reserve, so a concurrent lease pinning an old epoch either
	// takes a slot before it is drained or finds the capacity to build.
	var victims []*slot
	p.mu.Lock()
	for k, e := range p.entries {
		if k.graph != graphName || k.epoch >= hi {
			continue
		}
	drain:
		for {
			select {
			case s := <-e.free:
				victims = append(victims, s)
				e.built--
			default:
				break drain
			}
		}
		if e.built == 0 {
			delete(p.entries, k)
		}
	}
	p.mu.Unlock()
	for _, s := range victims {
		p.retire(s)
	}
	return len(victims)
}

// Close tears down every idle engine and then the providers. Leased
// slots are abandoned; call only after the server has drained.
func (p *Pool) Close() {
	p.mu.Lock()
	for _, e := range p.entries {
		for {
			select {
			case s := <-e.free:
				s.eng.Close()
			default:
				goto next
			}
		}
	next:
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
	for _, n := range p.built {
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
		out[n] = p.built[n]
	}
	return out
}
