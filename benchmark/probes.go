package main

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/partition"
	"repro/internal/seq"
)

// Layer microprobes: direct calls into one package at a time, with
// fixed iteration counts, each under a benchmark span and each
// reporting allocations next to time. They run only in the traced run,
// after its measured phases, so they never perturb a timed phase.

const frameBytes = 64 << 10 // the engine's slab chunk size

// probe runs f once under a span and returns seconds and allocations.
func (r *run) probe(name string, f func()) (seconds, allocs float64) {
	sp := r.rec.begin(name, 0, 0)
	seconds, allocs = allocsOf(f)
	r.rec.end(sp)
	return seconds, allocs
}

// probes measures every layer that can be called on its own, on the
// workload's own graph where a graph is needed.
func (r *run) probes(gs *graphSet) {
	r.probeGraph(gs)
	r.probeBitset()
	r.probeBufpool()
	r.probeComm()
	r.probeMutate(gs.g[vBase])
	r.probeSeq(gs)
}

func (r *run) probeGraph(gs *graphSet) {
	base := gs.g[vBase]
	gs.get(vSym)
	gs.get(vWSym)
	r.set("graph.rmat_s", gs.built[vBase])
	r.set("graph.symmetrize_s", gs.built[vSym])
	r.set("graph.weights_s", gs.built[vWSym])
	r.set("graph.edges", float64(base.NumEdges()))

	var pt *partition.Partition
	var err error
	s, _ := r.probe("partition.NewChunked", func() { pt, err = partition.NewChunked(base, numNodes, 0) })
	if err != nil {
		r.attempt(1)
		r.fail("partition.NewChunked: " + err.Error())
		return
	}
	r.set("partition.chunk_s", s)

	var dc *partition.DegreeClass
	s, allocs := r.probe("partition.BuildLayout", func() {
		dc = partition.BuildDegreeClass(base, pt, core.DefaultDepThreshold)
		for m := 0; m < numNodes; m++ {
			partition.BuildLayout(base, pt, dc, m)
		}
	})
	r.set("partition.layout_s", s)
	r.set("partition.layout_allocs", allocs)
	tracked, maxArcs := 0, int64(0)
	for m := 0; m < numNodes; m++ {
		tracked += len(dc.Highs[m])
		lo, hi := pt.Range(m)
		var arcs int64
		for v := lo; v < hi; v++ {
			arcs += int64(base.OutDegree(graph.VertexID(v)))
		}
		if arcs > maxArcs {
			maxArcs = arcs
		}
	}
	r.set("partition.tracked_share", float64(tracked)/float64(base.NumVertices()))
	r.set("partition.edge_imbalance", float64(maxArcs)*numNodes/float64(base.NumEdges()))

	var samples []float64
	for rep := 0; rep < 3; rep++ {
		s, allocs = r.probe("graph.BuildBlockedCSR", func() {
			for m := 0; m < numNodes && err == nil; m++ {
				lo, hi := pt.Range(m)
				_, err = graph.BuildBlockedCSR(base, lo, hi, graph.DefaultBlockVerts, pt.Starts)
			}
		})
		samples = append(samples, s)
	}
	if err != nil {
		r.attempt(1)
		r.fail("graph.BuildBlockedCSR: " + err.Error())
		return
	}
	r.set("graph.blocked_build_s", median(samples))
	r.set("graph.blocked_build_allocs", allocs)
}

func (r *run) probeBitset() {
	const bits, iters = 1 << 20, 1000 // 128 KiB of words per call
	b := bitset.New(bits)
	for i := 0; i < bits; i += 3 {
		b.Set(i)
	}
	buf := make([]byte, 0, bitset.SegmentWordBytes(0, bits))
	perKiB := func(s float64) float64 { return s * 1e9 / (iters * float64(bits/8/1024)) }
	var total float64
	s, allocs := r.probe("bitset.AppendSegmentLE", func() {
		for i := 0; i < iters; i++ {
			buf = b.AppendSegmentLE(buf[:0], 0, bits)
		}
	})
	r.set("bitset.append_segment_ns_per_kib", perKiB(s))
	total += allocs
	var err error
	s, allocs = r.probe("bitset.OrSegmentLE", func() {
		for i := 0; i < iters && err == nil; i++ {
			err = b.OrSegmentLE(buf, 0, bits)
		}
	})
	if err != nil {
		r.attempt(1)
		r.fail("bitset.OrSegmentLE: " + err.Error())
	}
	r.set("bitset.or_segment_ns_per_kib", perKiB(s))
	total += allocs
	n := 0
	s, allocs = r.probe("bitset.Count", func() {
		for i := 0; i < iters; i++ {
			n += b.Count()
		}
	})
	if n == 0 {
		r.attempt(1)
		r.fail("bitset.Count: empty bitmap")
	}
	r.set("bitset.count_ns_per_kib", perKiB(s))
	r.set("bitset.allocs_per_op", (total+allocs)/(3*iters))
}

func (r *run) probeBufpool() {
	// The ratios describe the workload's own slab traffic, so the
	// process-wide counters are read before the loop below adds 200 000
	// Gets that all hit.
	st := bufpool.PoolStats()
	const iters = 200000
	s, allocs := r.probe("bufpool.GetPut", func() {
		for i := 0; i < iters; i++ {
			bufpool.Put(bufpool.Get(frameBytes))
		}
	})
	r.set("bufpool.get_put_ns", s*1e9/iters)
	r.set("bufpool.allocs_per_op", allocs/iters)
	if st.Gets > 0 {
		r.set("bufpool.hit_ratio", float64(st.Hits)/float64(st.Gets))
	}
	if st.Puts > 0 {
		r.set("bufpool.discard_ratio", float64(st.Discards)/float64(st.Puts))
	}
}

// probeComm times the two transports on their own: a 64 KiB SendBufs
// round trip between two nodes, one-way streaming, and a 4-node barrier.
func (r *run) probeComm() {
	for _, tcp := range []bool{false, true} {
		name := "mem"
		iters := 4000
		if tcp {
			name, iters = "tcp", 2000
		}
		eps, closeAll, err := probeEndpoints(tcp)
		if err != nil {
			r.attempt(1)
			r.fail("comm probe endpoints: " + err.Error())
			continue
		}
		var perr error
		s, allocs := r.probe("comm."+name+".SendBufs", func() { perr = pingPong(eps[0], eps[1], iters) })
		r.set("comm."+name+"_sendbufs_us", s*1e6/float64(iters))
		r.set("comm."+name+"_sendbufs_allocs", allocs/float64(iters))
		if perr == nil && tcp {
			s, _ = r.probe("comm.tcp.stream", func() { perr = stream(eps[0], eps[1], iters) })
			r.set("comm.tcp_mb_per_s", float64(iters)*frameBytes/1e6/s)
		}
		if perr == nil {
			s, _ = r.probe("comm."+name+".Barrier", func() { perr = barriers(eps, iters) })
			r.set("comm."+name+"_barrier_us", s*1e6/float64(iters))
		}
		if perr != nil {
			r.attempt(1)
			r.fail("comm " + name + " probe: " + perr.Error())
		}
		closeAll()
	}
}

func probeEndpoints(tcp bool) ([]comm.Endpoint, func(), error) {
	if !tcp {
		mc := comm.NewMemCluster(numNodes)
		return mc.Endpoints(), func() { mc.Close() }, nil
	}
	teps, err := comm.NewTCPClusterLoopback(numNodes)
	if err != nil {
		return nil, nil, err
	}
	eps := make([]comm.Endpoint, len(teps))
	for i, e := range teps {
		eps[i] = e
	}
	return eps, func() {
		for _, e := range teps {
			e.Close()
		}
	}, nil
}

// pingPong sends a 64 KiB frame a→b and the same size back, iters times.
func pingPong(a, b comm.Endpoint, iters int) error {
	errc := make(chan error, 1) // the echo side reports once
	go func() {
		for i := 0; i < iters; i++ {
			m, err := b.Recv(a.ID(), comm.KindUpdate, int32(i))
			if err != nil {
				errc <- err
				return
			}
			m.Release()
			if err := b.SendBufs(a.ID(), comm.KindUpdate, int32(i), comm.Buffers{bufpool.Get(frameBytes)}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < iters; i++ {
		if err := a.SendBufs(b.ID(), comm.KindUpdate, int32(i), comm.Buffers{bufpool.Get(frameBytes)}); err != nil {
			return err
		}
		m, err := a.Recv(b.ID(), comm.KindUpdate, int32(i))
		if err != nil {
			return err
		}
		m.Release()
	}
	return <-errc
}

// stream sends iters 64 KiB frames a→b and waits for one ack.
func stream(a, b comm.Endpoint, iters int) error {
	errc := make(chan error, 1) // the receiving side reports once
	go func() {
		for i := 0; i < iters; i++ {
			m, err := b.Recv(a.ID(), comm.KindUpdate, int32(i))
			if err != nil {
				errc <- err
				return
			}
			m.Release()
		}
		errc <- b.SendBufs(a.ID(), comm.KindControl, 0, comm.Buffers{bufpool.Get(8)})
	}()
	for i := 0; i < iters; i++ {
		if err := a.SendBufs(b.ID(), comm.KindUpdate, int32(i), comm.Buffers{bufpool.Get(frameBytes)}); err != nil {
			return err
		}
	}
	m, err := a.Recv(b.ID(), comm.KindControl, 0)
	if err != nil {
		return err
	}
	m.Release()
	return <-errc
}

func barriers(eps []comm.Endpoint, iters int) error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for n, e := range eps {
		wg.Add(1)
		go func(n int, e comm.Endpoint) {
			defer wg.Done()
			for i := 0; i < iters && errs[n] == nil; i++ {
				errs[n] = comm.Barrier(e, int32(1000+i))
			}
		}(n, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probeMutate calls the mutation layer directly on g with the batches
// serve_mutate would post.
func (r *run) probeMutate(g *graph.Graph) {
	const reps = 5
	edges := g.Edges()
	batches := make([]mutate.Batch, reps)
	for i := range batches {
		batches[i] = toBatch(mutationBatch(g, edges, r.cfg.seed, i))
	}
	fail := func(what string, err error) {
		r.attempt(1)
		r.fail(fmt.Sprintf("mutate.%s: %v", what, err))
	}

	var applied *graph.Graph
	var applyMs, commitMs []float64
	var allocs float64
	for _, b := range batches {
		var err error
		var s float64
		s, allocs = r.probe("mutate.Apply", func() { applied, err = mutate.Apply(g, b) })
		if err != nil {
			fail("Apply", err)
			return
		}
		applyMs = append(applyMs, s*1e3)
	}
	r.set("mutate.apply_ms", median(applyMs))
	r.set("mutate.apply_allocs", allocs)

	store, err := mutate.NewStore(g, 0)
	if err != nil {
		fail("NewStore", err)
		return
	}
	for _, b := range batches {
		var s float64
		s, allocs = r.probe("mutate.Store.Commit", func() { _, err = store.Commit(b) })
		if err != nil {
			fail("Commit", err)
			return
		}
		commitMs = append(commitMs, s*1e3)
	}
	r.set("mutate.commit_ms", median(commitMs))
	r.set("mutate.commit_allocs", allocs)

	const small = 2000
	var enc []byte
	s, _ := r.probe("mutate.Batch.Encode", func() {
		for i := 0; i < small; i++ {
			enc = batches[i%reps].Encode()
		}
	})
	r.set("mutate.encode_us", s*1e6/small)
	fp := store.Latest().Fingerprint()
	s, _ = r.probe("mutate.ChainFingerprint", func() {
		for i := 0; i < small; i++ {
			fp = mutate.ChainFingerprint(fp, enc)
		}
	})
	r.set("mutate.chain_fp_us", s*1e6/small)

	// Incremental trackers: one Update against the last batch's diff.
	diff, err := mutate.Diff(g, applied)
	if err != nil {
		fail("Diff", err)
		return
	}
	root, _ := graph.LargestOutDegreeVertex(g)
	bt := mutate.NewBFSTracker(g, root)
	s, _ = r.probe("mutate.BFSTracker.Update", func() { bt.Update(applied, diff) })
	r.set("mutate.bfs_update_ms", s*1e3)
	symOld, symNew := graph.Symmetrize(g), graph.Symmetrize(applied)
	symDiff, err := mutate.Diff(symOld, symNew)
	if err != nil {
		fail("Diff", err)
		return
	}
	ct := mutate.NewCoreTracker(symOld, defaultK)
	s, _ = r.probe("mutate.CoreTracker.Update", func() { ct.Update(symNew, symDiff) })
	r.set("mutate.core_update_ms", s*1e3)
}

// probeSeq is the COST baseline: the dep_mem suite once through the
// single-threaded oracle, on this workload's graph.
func (r *run) probeSeq(gs *graphSet) {
	base, sym := gs.g[vBase], gs.get(vSym)
	p := passParams(rootPool(base, r.cfg.seed, 8), r.cfg.seed, 0)
	s, _ := r.probe("seq.pass", func() {
		seq.DirectionOptimizingBFS(base, graph.VertexID(p.Root))
		seq.KCoreIterative(sym, p.K)
		seq.RoundMIS(sym, seq.MISColors(sym.NumVertices(), p.Seed))
		seq.KMeans(sym, kmeansCenters, kmeansIters, p.Seed, nil)
		for round := 0; round < sampleRounds; round++ {
			seq.SampleNeighbors(base, p.Seed, round, nil)
		}
	})
	r.set("seq.pass_s", s)
}
