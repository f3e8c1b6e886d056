package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The two batch workloads run an algorithm suite on pre-built clusters,
// a SympleGraph-mode pass alternating with a Gemini-mode pass:
//
//	dep_mem    the paper's five loop-carried-dependency algorithms on
//	           the memory transport — dense circulant steps, dependency
//	           frames and DepWait do the work, the transport almost none;
//	update_tcp CC, SSSP and PageRank over loopback TCP — no dependency,
//	           heavy update traffic, so sparse push, bin/encode, slabs,
//	           SendBufs and update apply dominate.

type batchSpec struct {
	suite []string
	tcp   bool
	scale int
}

var batchSpecs = map[string]batchSpec{
	"dep_mem":    {suite: depSuite, scale: 16},
	"update_tcp": {suite: updateSuite, tcp: true, scale: 15},
}

// batchEnv is everything a batch workload sets up before its first
// timed pass.
type batchEnv struct {
	gs    *graphSet
	es    *engineSet
	roots []int
}

func setupBatch(r *run, spec batchSpec) (*batchEnv, error) {
	scale := spec.scale
	if r.cfg.scale > 0 {
		scale = r.cfg.scale
	}
	gs := &graphSet{seed: r.cfg.seed}
	sp := r.rec.begin("graph.RMAT", 0, 0)
	gs.built[vBase] = timeIt(func() { gs.g[vBase] = rmat(scale, r.cfg.seed) })
	r.rec.end(sp)
	es := newEngineSet(gs, spec.tcp, r.rec)
	if err := es.build(spec.suite, batchVariant); err != nil {
		es.close()
		return nil, err
	}
	env := &batchEnv{gs: gs, es: es, roots: rootPool(gs.g[vBase], r.cfg.seed, 8)}
	// Warm-up: one pass per mode fills the slab pool and grows the heap
	// to its working size, which the first timed pass should not pay.
	for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
		runs, _ := es.pass(spec.suite, batchVariant, mode, passParams(env.roots, r.cfg.seed, 0), false, 0, 0)
		for _, a := range runs {
			if a.err != nil {
				es.close()
				return nil, fmt.Errorf("warm-up %s: %w", a.name, a.err)
			}
		}
	}
	return env, nil
}

// passLog is what a sequence of alternating passes measured.
type passLog struct {
	sg, gem, round []float64            // wall seconds per pass and per round
	algo           map[string][]float64 // SympleGraph-mode seconds per algorithm
	algoMs         [][]float64          // per round, its SympleGraph-mode algorithm runs in ms
	ref            [2][]algoRun         // round 0's runs (SympleGraph, Gemini) when detail is set
	tracedElapsed  float64              // summed engine Elapsed of SympleGraph runs, detail only
}

// timedPasses alternates SympleGraph and Gemini passes of suite until
// seconds have gone by (at least two rounds). Failed algorithm runs
// are tallied on r and leave no timing behind.
func (r *run) timedPasses(es *engineSet, suite []string, vm map[string]variant, roots []int, seconds float64, detail bool) passLog {
	log := passLog{algo: map[string][]float64{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		p := passParams(roots, r.cfg.seed, i)
		op := int64(i + 1)
		rsp := r.rec.begin("round", 0, op)
		t0 := time.Now()
		failed := false
		for mi, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
			psp := r.rec.begin("pass."+mode.String(), rsp, op)
			runs, dur := es.pass(suite, vm, mode, p, detail, psp, op)
			r.rec.end(psp)
			r.attempt(len(runs))
			passOK := true
			var ms []float64
			for _, a := range runs {
				if a.err != nil {
					r.fail(fmt.Sprintf("%s/%s: %v", a.name, mode, a.err))
					passOK = false
					continue
				}
				if mi == 0 {
					log.algo[a.name] = append(log.algo[a.name], a.dur)
					log.tracedElapsed += a.stats.Elapsed.Seconds()
					ms = append(ms, 1e3*a.dur)
				}
			}
			if !passOK {
				failed = true
				continue
			}
			if mi == 0 {
				log.sg = append(log.sg, dur)
				log.algoMs = append(log.algoMs, ms)
			} else {
				log.gem = append(log.gem, dur)
			}
			if detail && i == 0 {
				log.ref[mi] = runs
			}
		}
		r.rec.end(rsp)
		if !failed {
			log.round = append(log.round, time.Since(t0).Seconds())
		}
		r.markRSS(i, 7)
	}
	return log
}

func runBatch(r *run) error {
	spec := batchSpecs[r.cfg.workload]
	env, err := repeatSetup(r, func() (*batchEnv, error) { return setupBatch(r, spec) },
		func(e *batchEnv) { e.es.close() })
	if err != nil {
		return err
	}
	defer env.es.close()

	if r.cfg.trace {
		r.engineLayers(env.es, spec.suite, batchVariant, env.roots, 0.35*r.cfg.seconds, 0.35*r.cfg.seconds)
		r.probes(env.gs)
	} else {
		log := r.timedPasses(env.es, spec.suite, batchVariant, env.roots, r.cfg.seconds, false)
		if len(log.sg) == 0 || len(log.gem) == 0 {
			return fmt.Errorf("no pass completed")
		}
		r.noteTail("SympleGraph pass", "s", log.sg)
		r.noteTail("Gemini pass", "s", log.gem)
		r.set("pass_s", fastest(log.sg))
		r.set("gemini_pass_s", fastest(log.gem))
		r.set("cycle_s", fastest(log.round))
		r.set("qps", float64(len(spec.suite))/fastest(log.sg))
		// Stand-ins (see README): the no-dependency path's run rate,
		// and pass_s in the unit of the metric no batch workload has.
		r.set("hit_qps", float64(len(spec.suite))/fastest(log.gem))
		r.set("mutate_p50_ms", 1e3*fastest(log.sg))
		var p50, p90 []float64 // per pass, over its algorithm runs
		for _, ms := range log.algoMs {
			p50 = append(p50, median(ms))
			p90 = append(p90, quantile(ms, 0.90))
		}
		r.set("miss_p50_ms", fastest(p50))
		r.set("miss_p90_ms", fastest(p90))
	}

	// Validation, outside every timed section: one pass per mode on
	// params no timed pass used.
	p := passParams(env.roots, r.cfg.seed^0x5bd1e995, 3)
	sg, _ := env.es.pass(spec.suite, batchVariant, core.ModeSympleGraph, p, true, 0, 0)
	gem, _ := env.es.pass(spec.suite, batchVariant, core.ModeGemini, p, true, 0, 0)
	fails, checks := env.es.validateRuns(batchVariant, p, sg, gem)
	r.attempt(checks)
	for _, f := range fails {
		r.mismatch(f)
	}
	return nil
}

// engineLayers is the traced run's engine section, shared by all four
// workloads: untraced passes of suite, then the same passes with the
// obs.Tracer attached and a benchmark span around every algorithm call,
// then one run of every algorithm outside suite. Counters come from
// traced round 0, whose inputs depend on the seed alone, so they repeat
// exactly; times are medians or per-pass means.
func (r *run) engineLayers(es *engineSet, suite []string, vm map[string]variant, roots []int, untracedS, tracedS float64) {
	if err := es.build(suite, vm); err != nil {
		r.attempt(1)
		r.fail(err.Error())
		return
	}
	plain := r.timedPasses(es, suite, vm, roots, untracedS, false)

	for k, c := range es.clusters {
		if k.mode == core.ModeSympleGraph {
			c.SetTracer(r.tracer)
		} else {
			c.SetTracer(obs.NewTracer()) // same cost, numbers unused
		}
	}
	traced := r.timedPasses(es, suite, vm, roots, tracedS, true)
	es.setTracer(nil)
	if len(plain.sg) == 0 || len(traced.sg) == 0 || traced.ref[0] == nil || traced.ref[1] == nil {
		return // failures are already tallied
	}

	// Reference-pass counters.
	var tot core.RunStats
	var mallocs uint64
	var edgesE, gemEdges int64
	for _, a := range traced.ref[0] {
		tot.Add(a.stats)
		mallocs += a.mallocs
		edgesE += a.edges
		r.setDependencyCounters(a)
	}
	for _, a := range traced.ref[1] {
		gemEdges += a.stats.EdgesTraversed
	}
	frames := tot.UpdateMessages + tot.DependencyMessages
	r.set("core.elapsed_s", median(plain.sg))
	r.set("core.edges_traversed", float64(tot.EdgesTraversed))
	r.set("core.edges_per_E", float64(tot.EdgesTraversed)/float64(edgesE))
	r.set("core.gemini_edges_per_E", float64(gemEdges)/float64(edgesE))
	r.set("core.vertices_skipped", float64(tot.VerticesSkipped))
	r.set("core.supersteps", float64(tot.Supersteps))
	r.set("core.dep_wait_s", tot.DependencyWait.Seconds())
	r.set("core.update_wait_s", tot.UpdateWait.Seconds())
	if tot.Supersteps > 0 {
		r.set("core.allocs_per_superstep", float64(mallocs)/float64(tot.Supersteps))
	}
	r.set("comm.update_bytes", float64(tot.UpdateBytes))
	r.set("comm.dep_bytes", float64(tot.DependencyBytes))
	r.set("comm.control_bytes", float64(tot.ControlBytes))
	r.set("comm.frames", float64(frames))
	if frames > 0 {
		r.set("comm.bytes_per_frame", float64(tot.UpdateBytes+tot.DependencyBytes)/float64(frames))
	}
	reg := obs.NewRegistry()
	var queueNs float64
	for k, c := range es.clusters {
		if k.mode != core.ModeSympleGraph {
			continue
		}
		c.RegisterMetrics(reg) // re-registering replaces the previous cluster's gauges
		snap := reg.Snapshot()
		for i := 0; i < numNodes; i++ {
			if v, ok := snap[fmt.Sprintf("comm.node%d.link_queue_delay_ns", i)].(int64); ok {
				queueNs += float64(v)
			}
		}
	}
	r.set("comm.queue_delay_s", queueNs/1e9)
	r.set("core.new_cluster_s", median(es.buildS))

	// Traced phase times: seconds per SympleGraph pass, summed over nodes.
	passes := float64(len(traced.sg))
	phase := map[obs.Phase]float64{}
	for _, ps := range r.tracer.Summaries() {
		phase[ps.Phase] += ps.Hist.Sum.Seconds()
	}
	for ph, name := range map[obs.Phase]string{
		obs.PhaseSparsePush:  "core.sparse_push_s",
		obs.PhaseDenseStep:   "core.dense_step_s",
		obs.PhaseDenseScan:   "core.dense_scan_s",
		obs.PhaseDenseBin:    "core.dense_bin_s",
		obs.PhaseDenseFlush:  "core.dense_flush_s",
		obs.PhaseBarrier:     "core.barrier_s",
		obs.PhaseBufferFlush: "core.buffer_flush_s",
	} {
		r.set(name, phase[ph]/passes)
	}
	top := phase[obs.PhaseSparsePush] + phase[obs.PhaseDenseStep] + phase[obs.PhaseUpdateWait] + phase[obs.PhaseBarrier]
	if traced.tracedElapsed > 0 {
		r.set("core.trace_coverage", top/(numNodes*traced.tracedElapsed))
	}
	r.set("core.trace_overhead", median(traced.sg)/median(plain.sg))
	r.set("run.pass_p90_s", quantile(plain.sg, 0.90))

	// Every algorithm's time: the suite's from the untraced passes, the
	// rest from three runs of their own.
	inSuite := map[string]bool{}
	for _, a := range suite {
		inSuite[a] = true
	}
	var extras []string
	for _, a := range allAlgos {
		if !inSuite[a] {
			extras = append(extras, a)
		}
	}
	durs := plain.algo
	p := passParams(roots, r.cfg.seed, 0)
	for rep := 0; rep < 3; rep++ {
		runs, _ := es.pass(extras, vm, core.ModeSympleGraph, p, rep == 0, 0, 0)
		r.attempt(len(runs))
		for _, a := range runs {
			if a.err != nil {
				r.fail(fmt.Sprintf("%s/symplegraph: %v", a.name, a.err))
				continue
			}
			durs[a.name] = append(durs[a.name], a.dur)
			if rep == 0 {
				r.setDependencyCounters(a)
			}
		}
	}
	for a, d := range durs {
		r.set("algorithms."+a+"_s", median(d))
	}
}

// setDependencyCounters reports the paper's work metrics for a detailed
// run of one of the five loop-carried-dependency algorithms.
func (r *run) setDependencyCounters(a algoRun) {
	switch a.name {
	case "bfs", "kcore", "mis", "kmeans", "sampling":
		r.set("algorithms."+a.name+"_edges_per_E", float64(a.stats.EdgesTraversed)/float64(a.edges))
		r.set("algorithms."+a.name+"_supersteps", float64(a.stats.Supersteps))
	}
}
