// Package cliutil holds the flag vocabulary and glue shared by the
// repository's command-line tools (symplegraph, sgbench, sggen, sgc).
// Every tool spells common knobs the same way — -nodes, -mode, -graph,
// -seed, -v — and the observability flags -trace and -debug-addr are
// wired through one helper so each main stays a thin dispatcher.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Fatalf prints "tool: message" to stderr and exits with status 1.
func Fatalf(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}

// Exit codes for the typed run-failure classes, so scripts and process
// supervisors can tell a stalled cluster from an engine bug without
// parsing stderr. 1 remains the generic failure code.
const (
	ExitFailure   = 1 // unclassified error
	ExitStall     = 2 // core.StallError: a receive exceeded -stall-timeout
	ExitCrash     = 3 // comm.CrashError: a node died (chaos or real)
	ExitPeerLost  = 4 // comm.ClosedError / comm.TimeoutError: transport cut
	ExitProtocol  = 5 // comm.ProtocolError: desynchronized SPMD streams, a bug
	ExitPoisoned  = 6 // core.PoisonedError: run on an un-Reset cluster
	ExitCancelled = 7 // context deadline/cancellation
)

// ErrorReport classifies err against the engine's typed error taxonomy
// (errors.As through any wrapping) and returns the matching exit code
// plus a message that keeps the structured context — blocked node,
// phase, awaited peer — that a bare %v of a wrapped chain buries.
func ErrorReport(err error) (code int, msg string) {
	var (
		stall    *core.StallError
		poisoned *core.PoisonedError
		crash    *comm.CrashError
		protocol *comm.ProtocolError
		closed   *comm.ClosedError
		timeout  *comm.TimeoutError
		injected *comm.InjectedError
	)
	switch {
	case errors.As(err, &stall):
		return ExitStall, fmt.Sprintf(
			"stall: node %d blocked in %v for %v awaiting node %d (kind=%v tag=%d); raise -stall-timeout or enable -max-restarts",
			stall.Node, stall.Phase, stall.Timeout, stall.From, stall.Kind, stall.Tag)
	case errors.As(err, &crash):
		return ExitCrash, fmt.Sprintf("node crash: %v; enable -checkpoint-every and -max-restarts to recover", crash)
	case errors.As(err, &protocol):
		return ExitProtocol, fmt.Sprintf("protocol violation (engine bug, not retried): %v", protocol)
	case errors.As(err, &poisoned):
		return ExitPoisoned, fmt.Sprintf("%v", poisoned)
	case errors.As(err, &closed):
		return ExitPeerLost, fmt.Sprintf("peer lost: %v", closed)
	case errors.As(err, &timeout):
		return ExitPeerLost, fmt.Sprintf("transport timeout: %v", timeout)
	case errors.As(err, &injected):
		return ExitFailure, fmt.Sprintf("injected fault escaped recovery: %v", injected)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return ExitCancelled, fmt.Sprintf("cancelled: %v", err)
	default:
		return ExitFailure, fmt.Sprintf("%v", err)
	}
}

// FatalErr prints err's classified report to stderr and exits with the
// class's code. Run-failure paths use it instead of Fatalf so the typed
// context PR 2 attached (node, phase, awaited peer) reaches the
// operator and the exit status.
func FatalErr(tool string, err error) {
	code, msg := ErrorReport(err)
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, msg)
	os.Exit(code)
}

// ParseMode maps the shared -mode vocabulary onto core.Mode.
func ParseMode(s string) (core.Mode, error) {
	switch s {
	case "symplegraph":
		return core.ModeSympleGraph, nil
	case "gemini":
		return core.ModeGemini, nil
	}
	return 0, fmt.Errorf("unknown mode %q (flag -mode): want symplegraph or gemini", s)
}

// GraphSpec holds the shared graph-input flags: -graph (a file sggen
// wrote, in either format) and -rmat (generate in-process).
type GraphSpec struct {
	Path string
	RMAT string
}

// Register installs -graph and -rmat on fs.
func (s *GraphSpec) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Path, "graph", "", "graph file, binary or text edge list (see sggen)")
	fs.StringVar(&s.RMAT, "rmat", "12,16,1", "generate R-MAT graph: scale,edgefactor,seed")
}

// Load reads -graph if set, otherwise generates the -rmat graph.
func (s *GraphSpec) Load() (*graph.Graph, error) {
	if s.Path != "" {
		f, err := os.Open(s.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Read(f)
	}
	parts := strings.Split(s.RMAT, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -rmat spec %q, want scale,edgefactor,seed", s.RMAT)
	}
	scale, err1 := strconv.Atoi(parts[0])
	ef, err2 := strconv.Atoi(parts[1])
	seed, err3 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("bad -rmat spec %q", s.RMAT)
	}
	return graph.RMAT(scale, ef, graph.Graph500Params(), seed), nil
}

// Fleet bundles the worker-fleet health-probing flags a serving
// front-end exposes: probe cadence and timeout, how many consecutive
// misses declare a worker dead, and the backoff cap for re-probing
// dead workers. Zero values defer to the server's defaults.
type Fleet struct {
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	DeadAfter     int
	BackoffCap    time.Duration
}

// Register installs the fleet flags on fs.
func (f *Fleet) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.ProbeInterval, "probe-interval", 500*time.Millisecond, "worker health-probe cadence")
	fs.DurationVar(&f.ProbeTimeout, "probe-timeout", time.Second, "per-probe dial+ping budget")
	fs.IntVar(&f.DeadAfter, "probe-dead-after", 3, "consecutive probe failures before a worker is declared dead")
	fs.DurationVar(&f.BackoffCap, "probe-backoff-cap", 5*time.Second, "probe backoff cap while a worker stays dead")
}

// Resilience bundles the shared fault-tolerance flags: -stall-timeout,
// -checkpoint-every and -max-restarts configure detection and recovery;
// -chaos-seed (plus -chaos-crash-node/-chaos-crash-at) enables the
// deterministic fault-injection plan used to exercise them.
type Resilience struct {
	ChaosSeed       uint64
	CheckpointEvery int
	StallTimeout    time.Duration
	MaxRestarts     int
	CrashNode       int
	CrashAt         int

	// Plan is the fault plan built by Apply, nil when chaos is off.
	Plan *comm.FaultPlan
}

// Register installs the resilience flags on fs.
func (r *Resilience) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&r.ChaosSeed, "chaos-seed", 0, "deterministic fault injection seed (0 = off)")
	fs.IntVar(&r.CheckpointEvery, "checkpoint-every", 0, "superstep checkpoint cadence K (0 = off)")
	fs.DurationVar(&r.StallTimeout, "stall-timeout", 0, "per-receive deadline before a stalled superstep fails (0 = wait forever)")
	fs.IntVar(&r.MaxRestarts, "max-restarts", 0, "recoverable-failure restarts before giving up (0 = fail fast)")
	fs.IntVar(&r.CrashNode, "chaos-crash-node", 0, "node the chaos plan crashes (with -chaos-crash-at)")
	fs.IntVar(&r.CrashAt, "chaos-crash-at", 0, "superstep at which -chaos-crash-node dies (0 = no crash)")
}

// BuildPlan constructs the seed-driven fault plan — mild delay spikes,
// plus the configured crash — when -chaos-seed is set; nil otherwise.
// The plan is kept in r.Plan so callers can report injected-fault
// counters afterwards.
func (r *Resilience) BuildPlan() *comm.FaultPlan {
	if r.ChaosSeed == 0 {
		return nil
	}
	if r.Plan == nil {
		r.Plan = &comm.FaultPlan{
			Seed:             r.ChaosSeed,
			DelayProb:        0.01,
			Delay:            time.Millisecond,
			CrashNode:        comm.NodeID(r.CrashNode),
			CrashAtSuperstep: r.CrashAt,
		}
	}
	return r.Plan
}

// Apply threads the flags into opts, attaching the chaos plan to
// opts.Fault when one is enabled.
func (r *Resilience) Apply(opts *core.Options) *comm.FaultPlan {
	opts.CheckpointEvery = r.CheckpointEvery
	opts.StallTimeout = r.StallTimeout
	opts.MaxRestarts = r.MaxRestarts
	opts.Fault = r.BuildPlan()
	return opts.Fault
}

// PrintCounters reports the faults the chaos plan injected and the
// recovery work the engine performed. No-op when chaos is off.
func (r *Resilience) PrintCounters(w *os.File, s core.StatsSnapshot) {
	if r.Plan == nil {
		return
	}
	fc := r.Plan.Counters()
	fmt.Fprintf(w, "chaos: delays=%d send-errs=%d drops=%d crashes=%d; restarts=%d stalls=%d\n",
		fc.Delays, fc.SendErrs, fc.Drops, fc.Crashes, s.Restarts, s.Stalls)
}

// Obs bundles the shared observability flags. After Start, Tracer and
// Registry are non-nil when any observability surface was requested and
// may be handed to core.Options and Cluster.RegisterMetrics; Close
// flushes the Chrome trace and stops the debug server.
type Obs struct {
	TracePath string
	DebugAddr string

	Tracer   *obs.Tracer
	Registry *obs.Registry
	server   *obs.DebugServer
}

// Register installs -trace and -debug-addr on fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace_event timeline to this file")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /debug/{metrics,vars,trace,pprof} on this address")
}

// Enabled reports whether any observability flag was set.
func (o *Obs) Enabled() bool { return o.TracePath != "" || o.DebugAddr != "" }

// Start allocates the tracer/registry and starts the debug server if
// requested. Safe to call when no observability flag is set: Tracer and
// Registry stay nil (a nil *obs.Tracer is a valid, disabled tracer).
func (o *Obs) Start(tool string) error {
	if !o.Enabled() {
		return nil
	}
	o.Tracer = obs.NewCapturingTracer(obs.DefaultMaxEvents)
	o.Registry = obs.NewRegistry()
	if o.DebugAddr == "" {
		return nil
	}
	srv, err := obs.StartDebugServer(o.DebugAddr, o.Registry, o.Tracer)
	if err != nil {
		return fmt.Errorf("starting debug server: %w", err)
	}
	o.server = srv
	fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/debug/metrics\n", tool, srv.Addr)
	return nil
}

// Close writes the -trace file (if requested) and stops the debug
// server, surfacing any error that killed its serve loop while the tool
// ran. Call it on the tool's success path; the trace of a failed run
// is intentionally not written.
func (o *Obs) Close() error {
	if o.server != nil {
		err := o.server.Close()
		o.server = nil
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
	}
	if o.TracePath == "" || o.Tracer == nil {
		return nil
	}
	f, err := os.Create(o.TracePath)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, o.Tracer); err != nil {
		f.Close()
		return err
	}
	if dropped := o.Tracer.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d events dropped (capture buffer full)\n", dropped)
	}
	return f.Close()
}

// PrintStats writes the standard stats report shared by symplegraph
// runs: totals always, per-node breakdown and phase histograms when
// verbose.
func PrintStats(w *os.File, s core.StatsSnapshot, numEdges int64, verbose bool) {
	t := s.Totals
	fmt.Fprintf(w, "time: %v\n", t.Elapsed)
	fmt.Fprintf(w, "edges traversed: %d (%.3f of |E|)\n", t.EdgesTraversed,
		float64(t.EdgesTraversed)/float64(numEdges))
	fmt.Fprintf(w, "communication: update=%dB dependency=%dB control=%dB total=%dB\n",
		t.UpdateBytes, t.DependencyBytes, t.ControlBytes, t.TotalBytes())
	fmt.Fprintf(w, "dependency-skipped signal executions: %d\n", t.VerticesSkipped)
	fmt.Fprintf(w, "wait: dependency=%v update=%v\n", t.DependencyWait, t.UpdateWait)
	if s.Restarts > 0 || s.Stalls > 0 {
		fmt.Fprintf(w, "resilience: restarts=%d stalls=%d\n", s.Restarts, s.Stalls)
	}
	if !verbose {
		return
	}
	for _, n := range s.Nodes {
		fmt.Fprintf(w, "node %d: edges=%d update=%dB dependency=%dB control=%dB dep-wait=%v upd-wait=%v\n",
			n.Node, n.EdgesTraversed, n.UpdateBytes, n.DependencyBytes, n.ControlBytes,
			n.DependencyWait, n.UpdateWait)
	}
	for _, ps := range s.Phases {
		if ps.Hist.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "phase node%d %-11s count=%d p50=%v p95=%v max=%v\n",
			ps.Node, ps.Phase, ps.Hist.Count, ps.Hist.P50, ps.Hist.P95, ps.Hist.Max)
	}
}

// ParseHostPorts splits a comma-separated host:port roster — the
// -workers flag vocabulary shared by sgserve and scripts — validating
// each entry and rejecting duplicates. An empty string is an empty
// roster, not an error.
func ParseHostPorts(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(f); err != nil {
			return nil, fmt.Errorf("bad worker address %q: %w", f, err)
		}
		if seen[f] {
			return nil, fmt.Errorf("duplicate worker address %q", f)
		}
		seen[f] = true
		out = append(out, f)
	}
	return out, nil
}
