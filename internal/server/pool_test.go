package server

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// localTestPool builds a pool backed by the in-process provider alone.
func localTestPool(t *testing.T, g *graph.Graph, opts core.Options, slots int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{
		Graphs:        map[string]*graph.Graph{"g": g},
		Providers:     []EngineProvider{NewLocalProvider(LocalProviderConfig{Options: opts})},
		SlotsPerEntry: slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// openSlots counts the engines the pool still tracks: built, not retired.
func openSlots(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.open)
}

// TestPoolConcurrentLeasesMatchSequential leases two engines from the
// same pool and runs different algorithms on them simultaneously (run
// under -race in `make race`): the slots must be fully isolated — the
// concurrent results bit-identical to sequential runs of the same
// queries.
func TestPoolConcurrentLeasesMatchSequential(t *testing.T) {
	g := testGraph(7, 3)
	p := localTestPool(t, g, core.Options{NumNodes: 2, Mode: core.ModeSympleGraph}, 2)
	mode := core.ModeSympleGraph

	// Sequential baselines on dedicated engines.
	baseBFS, err := core.NewCluster(g, core.Options{NumNodes: 2, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer baseBFS.Close()
	root, _ := graph.LargestOutDegreeVertex(g)
	wantBFS, err := algorithms.BFS(baseBFS, root)
	if err != nil {
		t.Fatal(err)
	}
	baseKC, err := core.NewCluster(graph.Symmetrize(g), core.Options{NumNodes: 2, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer baseKC.Close()
	wantKC, err := algorithms.KCore(baseKC, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent: two different algorithms on two leased slots, several
	// rounds so the slots are recycled through Release in between.
	for round := 0; round < 3; round++ {
		s1, err := p.Lease("", "g", 0, variantDirected, mode)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p.Lease("local", "g", 0, variantUndirected, mode)
		if err != nil {
			t.Fatal(err)
		}
		if s1.eng == s2.eng {
			t.Fatal("two live leases share an engine")
		}
		var wg sync.WaitGroup
		var gotBFS *algorithms.BFSResult
		var gotKC *algorithms.KCoreResult
		var err1, err2 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			gotBFS, err1 = algorithms.BFS(s1.eng, root)
		}()
		go func() {
			defer wg.Done()
			gotKC, err2 = algorithms.KCore(s2.eng, 3)
		}()
		wg.Wait()
		p.Release(s1)
		p.Release(s2)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: bfs err=%v kcore err=%v", round, err1, err2)
		}
		if !reflect.DeepEqual(gotBFS.Depth, wantBFS.Depth) || !reflect.DeepEqual(gotBFS.Parent, wantBFS.Parent) {
			t.Fatalf("round %d: concurrent BFS diverged from sequential", round)
		}
		if !reflect.DeepEqual(gotKC.InCore, wantKC.InCore) {
			t.Fatalf("round %d: concurrent KCore diverged from sequential", round)
		}
	}
	// Both variants reuse warm engines across rounds: 2 slots total.
	if p.Slots() != 2 {
		t.Fatalf("pool built %d engines, want 2", p.Slots())
	}
	if got := p.ProviderSlots()["local"]; got != 2 {
		t.Fatalf("provider slot count = %d, want 2", got)
	}
}

// TestPoolLeaseNeverWaits pins the cache contract that replaced the
// per-entry slot cap: with SlotsPerEntry engines already out, a further
// lease builds at once instead of queueing for a release (admission is
// the one concurrency gate), an entry keeps at most SlotsPerEntry idle
// engines — the surplus is retired on release — and exists only while it
// holds some.
func TestPoolLeaseNeverWaits(t *testing.T) {
	p := localTestPool(t, testGraph(6, 1), core.Options{NumNodes: 2}, 2)
	mode := core.ModeSympleGraph
	idle := func() (entries, engines int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, e := range p.entries {
			engines += len(e)
		}
		return len(p.entries), engines
	}

	var held []*slot
	for i := 0; i < 3; i++ {
		done := make(chan *slot, 1)
		go func() {
			s, err := p.Lease("", "g", 0, variantDirected, mode)
			if err != nil {
				t.Errorf("lease %d: %v", i, err)
			}
			done <- s
		}()
		select {
		case s := <-done:
			held = append(held, s)
		case <-time.After(2 * time.Second):
			t.Fatalf("lease %d waited with %d slots out", i, len(held))
		}
	}
	if p.Slots() != 3 {
		t.Fatalf("three concurrent leases built %d engines, want 3", p.Slots())
	}
	if e, n := idle(); e != 0 || n != 0 {
		t.Fatalf("with every engine leased the pool holds %d entries / %d idle engines, want none", e, n)
	}
	for _, s := range held {
		p.Release(s)
	}
	if e, n := idle(); e != 1 || n != 2 {
		t.Fatalf("after three releases: %d entries / %d idle engines, want 1 / 2 (SlotsPerEntry)", e, n)
	}
	if open := openSlots(p); open != 2 {
		t.Fatalf("pool tracks %d open slots, want 2: the surplus engine must be retired, not dropped", open)
	}
	// Warm leases reuse the parked engines.
	a, _ := p.Lease("", "g", 0, variantDirected, mode)
	b, _ := p.Lease("", "g", 0, variantDirected, mode)
	if e, _ := idle(); e != 0 || p.Slots() != 3 {
		t.Fatalf("warm leases: %d entries left, %d engines built (want 0, 3)", e, p.Slots())
	}
	p.Release(a)
	p.Release(b)

	if _, err := p.Lease("", "missing", 0, variantDirected, mode); err == nil {
		t.Fatal("unknown graph leased")
	}
	if _, err := p.Lease("nosuch", "g", 0, variantDirected, mode); err == nil {
		t.Fatal("unknown provider leased")
	}
}

// TestPoolNamesSorted pins the sgvet snapdet fix: GraphNames and
// ProviderNames are built by map iteration, so without an explicit sort
// their order — and with it /statusz rendering and error messages —
// changed run to run.
func TestPoolNamesSorted(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, n := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		graphs[n] = testGraph(4, 1)
	}
	p, err := NewPool(PoolConfig{
		Graphs:        graphs,
		Providers:     []EngineProvider{NewLocalProvider(LocalProviderConfig{Options: core.Options{NumNodes: 1}})},
		SlotsPerEntry: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	for i := 0; i < 8; i++ {
		if got := p.GraphNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("GraphNames() = %v, want sorted %v", got, want)
		}
	}
	if got := p.ProviderNames(); !reflect.DeepEqual(got, []string{"local"}) {
		t.Fatalf("ProviderNames() = %v", got)
	}
}

// TestPoolDropsClosedSlots: every commit supersedes the previous
// epoch's engines — idle local ones are re-filed and advanced by the
// next lease, a leased one is closed when it comes back — and the pool
// must not keep a closed one reachable (each pins its layouts and
// blocked CSR). Across many commits the slots it still tracks stay
// within what the retained epochs can hold, while Slots, ProviderSlots
// and Restarts keep counting every engine ever built.
func TestPoolDropsClosedSlots(t *testing.T) {
	const retention, commits = 3, 12
	p, err := NewPool(PoolConfig{
		Graphs:        map[string]*graph.Graph{"g": testGraph(7, 1)},
		Providers:     []EngineProvider{NewLocalProvider(LocalProviderConfig{Options: core.Options{NumNodes: 2, Mode: core.ModeSympleGraph}})},
		SlotsPerEntry: 2,
		Retention:     retention,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ge, _ := p.Entry("g")
	variants := []graphVariant{variantDirected, variantUndirected, variantWeighted}
	perEpoch := len(variants) * 2 // two leases per variant below

	live := func() int { return openSlots(p) }
	built := 0
	idle := map[graphVariant]int{} // engines parked per variant: a lease pops (and advances) one before it builds
	lease := func(v graphVariant) *slot {
		s, err := p.Lease("", "g", 0, v, core.ModeSympleGraph)
		if err != nil {
			t.Fatal(err)
		}
		if idle[v] > 0 {
			idle[v]--
		} else {
			built++
		}
		return s
	}
	var held *slot // one lease that outlives its epoch
	for c := 0; c < commits; c++ {
		for _, v := range variants {
			a, b := lease(v), lease(v)
			if c == 1 && v == variantDirected {
				held = a
			} else {
				p.Release(a)
				idle[v]++
			}
			p.Release(b)
			idle[v]++
		}
		if _, err := ge.commit(mutate.Batch{Ops: []mutate.Mutation{{Op: mutate.OpAddEdge, Src: graph.VertexID(c), Dst: graph.VertexID(c + 40)}}}); err != nil {
			t.Fatal(err)
		}
		p.RetireEpochs("g")
		if got, max := live(), retention*perEpoch; got > max {
			t.Fatalf("after commit %d the pool still tracks %d slots, want at most %d (retention %d × %d per epoch)",
				c, got, max, retention, perEpoch)
		}
	}
	parked := idle[variantDirected] + idle[variantUndirected] + idle[variantWeighted]
	if got := live(); got != 1+parked {
		t.Fatalf("idle pool after the last retire tracks %d slots, want the held lease and the %d re-filed ones", got, parked)
	}
	p.Release(held) // superseded epoch: closed on the way back
	if got := live(); got != parked {
		t.Fatalf("pool tracks %d slots after the last release, want the %d re-filed ones", got, parked)
	}
	if p.Slots() != built || p.ProviderSlots()["local"] != built {
		t.Fatalf("ever-built counters: Slots=%d ProviderSlots=%v, want %d", p.Slots(), p.ProviderSlots(), built)
	}
	if p.Restarts() != 0 {
		t.Fatalf("Restarts = %d on a fault-free pool", p.Restarts())
	}
}

// TestPoolEntriesBounded: the idle-list map must hold entries for live
// epochs only. 200 commits, with a query at the latest epoch between
// each — some pinned to the previous epoch, some held across the commit
// that supersedes them, one reader leasing concurrently (run under
// -race in `make race`) — leave at most retention × variants × modes
// entries, and only the latest epoch's once everything is home.
func TestPoolEntriesBounded(t *testing.T) {
	const retention, commits = 3, 200
	p, err := NewPool(PoolConfig{
		Graphs:        map[string]*graph.Graph{"g": testGraph(6, 1)},
		Providers:     []EngineProvider{NewLocalProvider(LocalProviderConfig{Options: core.Options{NumNodes: 2}})},
		SlotsPerEntry: 2,
		Retention:     retention,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ge, _ := p.Entry("g")
	variants := []graphVariant{variantDirected, variantUndirected, variantWeighted}
	modes := []core.Mode{core.ModeSympleGraph, core.ModeGemini}
	bound := retention * len(variants) * len(modes)
	entries := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.entries)
	}

	// The concurrent reader: latest-epoch and pinned-epoch leases racing
	// the commits' retire. A pinned epoch may have been evicted by the
	// time it resolves; that lease fails and the reader moves on.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			epoch := uint64(0)
			if i%2 == 1 {
				_, epoch = ge.store.Window()
			}
			if s, err := p.Lease("", "g", epoch, variants[i%len(variants)], modes[i%len(modes)]); err == nil {
				p.Release(s)
			}
		}
	}()

	for c := 0; c < commits; c++ {
		_, hi := ge.store.Window()
		pin := uint64(0)
		if c%5 == 4 {
			pin = hi - 1 // the epoch the last commit superseded
		}
		s, err := p.Lease("", "g", pin, variants[c%len(variants)], modes[c%len(modes)])
		if err != nil {
			t.Fatal(err)
		}
		held := c%7 == 0
		if !held {
			p.Release(s)
		}
		if _, err := ge.commit(mutate.Batch{Ops: []mutate.Mutation{{Op: mutate.OpAddEdge, Src: graph.VertexID(c % 64), Dst: graph.VertexID((c*7 + 1) % 64)}}}); err != nil {
			t.Fatal(err)
		}
		p.RetireEpochs("g")
		if held {
			p.Release(s) // superseded: closed, and its entry goes with it
		}
		// The reader may hold one lease of an epoch past retention.
		if got := entries(); got > bound+1 {
			t.Fatalf("after commit %d the pool holds %d entries, want at most %d (retention %d × %d variants × %d modes)",
				c, got, bound, retention, len(variants), len(modes))
		}
	}
	close(stop)
	wg.Wait()
	p.RetireEpochs("g")
	_, hi := ge.store.Window()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, idle := range p.entries {
		if k.epoch != hi {
			t.Errorf("entry for superseded epoch %d (latest %d) survives with %d idle engines", k.epoch, hi, len(idle))
		}
		if len(idle) == 0 || len(idle) > 2 {
			t.Errorf("entry %+v holds %d idle engines, want 1..SlotsPerEntry", k, len(idle))
		}
	}
	if got, max := len(p.entries), len(variants)*len(modes); got > max {
		t.Errorf("idle pool holds %d entries, want at most %d", got, max)
	}
}
