package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// config is one workload run, as the driver's command line gives it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    int    // 0 = the workload's own size; tests shrink it
	outDir   string // where the traced run writes <workload>.trace.json
}

// run accumulates one workload's measurements and failure tallies.
// The metric map and the tallies are touched by client goroutines, so
// they sit behind mu.
type run struct {
	cfg config

	mu        sync.Mutex
	m         map[string]float64
	attempted int64
	failed    int64
	invalid   int64            // failed output checks, a subset of failed
	failures  map[string]int64 // "what: message" → count
	rssMB     float64          // see markRSS
	notes     []string         // printed with the metrics, not part of the result

	// Set only in the traced run: the benchmark's own spans, the tracer
	// handed to the clusters the benchmark builds, and the one handed
	// to the server for the clusters its pool builds.
	rec       *recorder
	tracer    *obs.Tracer
	srvTracer *obs.Tracer
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, m: map[string]float64{}, failures: map[string]int64{}}
	if cfg.trace {
		r.rec = newRecorder()
		// 64 Ki events each keep a trace file near 10 MB; spans past the
		// bound still count in the tracer's histograms.
		r.tracer = obs.NewCapturingTracer(1 << 16)
		r.srvTracer = obs.NewCapturingTracer(1 << 16)
	}
	return r
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.m[name] = v
	r.mu.Unlock()
}

// attempt counts n operations as attempted.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += int64(n)
	r.mu.Unlock()
}

// fail counts one attempted operation as failed, tallied under what. A
// failed operation contributes no latency sample anywhere.
func (r *run) fail(what string) {
	if i := strings.IndexByte(what, '\n'); i >= 0 {
		what = what[:i]
	}
	if len(what) > 160 {
		what = what[:160]
	}
	r.mu.Lock()
	r.failed++
	r.failures[what]++
	r.mu.Unlock()
}

// mismatch counts one attempted output check as failed. Unlike a failed
// operation it makes the run incorrect, and the process exit non-zero.
func (r *run) mismatch(what string) {
	r.fail(what)
	r.mu.Lock()
	r.invalid++
	r.mu.Unlock()
}

// noteTail prints, for a timing the run gates on, its sample count and
// the highest percentile that has at least ten samples beyond it.
func (r *run) noteTail(what, unit string, xs []float64) {
	p := highestSupported(len(xs))
	r.notes = append(r.notes, fmt.Sprintf("%s: %d samples, median %.5g %s, p%g %.5g %s",
		what, len(xs), median(xs), unit, 100*p, quantile(xs, p), unit))
}

// markRSS is called by a workload after each measured round. At round
// `at` it records the resident-set high-water mark, which becomes
// peak_rss_mb: memory after set-up plus a fixed amount of work, so that
// a commit that gets more rounds into --seconds is not charged for
// them. A run that ends earlier reports the mark at its end.
func (r *run) markRSS(round, at int) {
	if round == at {
		r.rssMB = peakRSSMB()
	}
}

// repeatSetup sets a workload up several times, closing all but the
// last, records the fastest as setup_s and returns the last. One sample
// of a set-up that takes a second or two is not steady enough to gate
// on, so an untraced run sets up at least three times and goes on, up
// to nine, while the set-ups so far took under 0.4 × --seconds together.
// The traced run reports no setup_s and sets up once.
func repeatSetup[T any](r *run, setup func() (T, error), closeEnv func(T)) (T, error) {
	var env T
	var secs []float64
	for i := 0; i == 0 || !r.cfg.trace && (i < 3 || i < 9 && sum(secs) < 0.4*r.cfg.seconds); i++ {
		if i > 0 {
			closeEnv(env)
			settle()
		}
		var err error
		t := time.Now()
		if env, err = setup(); err != nil {
			return env, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	r.set("setup_s", fastest(secs))
	return env, nil
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish adds the process-wide metrics, prints every metric by name
// with its unit, then the failure tallies, then the result line.
func (r *run) finish(w io.Writer) result {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if r.rssMB == 0 {
		r.rssMB = peakRSSMB()
	}
	r.set("peak_rss_mb", r.rssMB)
	r.set("run.gc_cycles", float64(ms.NumGC))
	r.set("run.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	r.set("run.ops_attempted", float64(r.attempted))
	r.set("run.ops_failed", float64(r.failed))

	list := endToEnd
	if r.cfg.trace {
		list = perLayer
	}
	res := result{Correct: r.invalid == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, md := range list {
		v, ok := r.m[md.Name]
		if !ok && !r.cfg.trace {
			// An end-to-end metric nobody measured is a bug in the
			// benchmark, not a zero.
			res.Correct = false
			fmt.Fprintf(w, "  %-34s MISSING\n", md.Name)
		}
		res.Metrics[md.Name] = metricValue{Value: v, Unit: md.Unit}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", md.Name, v, md.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  ops attempted %d failed %d\n", r.attempted, r.failed)
	keys := make([]string, 0, len(r.failures))
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  FAILED x%d: %s\n", r.failures[k], k)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	line, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", line)
	return res
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// settle runs a collection and returns freed pages, so that one
// setup's garbage is not counted into the next one's time or into the
// resident-set high-water mark more than it has to be.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timeIt runs f and returns its wall seconds.
func timeIt(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// allocsOf runs f and returns its wall seconds and heap allocations.
func allocsOf(f func()) (seconds float64, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seconds = timeIt(f)
	runtime.ReadMemStats(&after)
	return seconds, float64(after.Mallocs - before.Mallocs)
}
