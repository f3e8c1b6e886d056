package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// fastFleet is the probe configuration chaos tests run with: state
// transitions within tens of milliseconds instead of seconds.
func fastFleet(cfg *Config) {
	cfg.ProbeInterval = 25 * time.Millisecond
	cfg.ProbeTimeout = 250 * time.Millisecond
	cfg.ProbeDeadAfter = 2
	cfg.ProbeBackoffCap = 100 * time.Millisecond
}

// fleetOf reads the remote provider's roster snapshot out of a server.
func fleetOf(s *Server) fleetStatus {
	return s.pool.remote.fleet()
}

// waitFleet polls until cond holds on the fleet snapshot or the
// deadline passes.
func waitFleet(t *testing.T, s *Server, what string, cond func(fleetStatus) bool) fleetStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		fs := fleetOf(s)
		if cond(fs) {
			return fs
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %s: %+v", what, fs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stateOf(fs fleetStatus, addr string) WorkerState {
	for _, w := range fs.Workers {
		if w.Addr == addr {
			return w.State
		}
	}
	return -1
}

// TestFleetRosterStateMachine walks one worker through the full probe
// state machine: healthy while serving, suspect then dead after a kill,
// rejoining → healthy (with the preload hook having run) after a
// restart on the same port.
func TestFleetRosterStateMachine(t *testing.T) {
	d := startWorker(t, WorkerConfig{})
	addr := d.Addr()

	rejoined := make(chan string, 1)
	r := newRosterManager(Config{
		Workers:         []string{addr},
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		ProbeDeadAfter:  2,
		ProbeBackoffCap: 100 * time.Millisecond,
	}.withDefaults(), func(a string) error { rejoined <- a; return nil })
	defer r.Close()

	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("roster never reached %s: %+v", what, r.Fleet())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	wait("healthy with pong data", func() bool {
		fs := r.Fleet()
		return fs.Healthy == 1 && !fs.Degraded && fs.Workers[0].State == StateHealthy
	})
	if got := r.Usable(); len(got) != 1 || got[0] != addr {
		t.Fatalf("usable = %v", got)
	}

	// Kill: healthy → suspect → dead, and the worker leaves Usable.
	d.Close()
	wait("dead", func() bool { return stateOf(r.Fleet(), addr) == StateDead })
	if fs := r.Fleet(); !fs.Degraded || fs.Healthy != 0 {
		t.Fatalf("dead fleet not degraded: %+v", fs)
	}
	if got := r.Usable(); len(got) != 0 {
		t.Fatalf("dead worker still usable: %v", got)
	}

	// Restart on the same port: dead → rejoining (hook runs) → healthy.
	d2, err := StartWorkerDaemon(WorkerConfig{Addr: addr})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer d2.Close()
	wait("healthy after rejoin", func() bool { return stateOf(r.Fleet(), addr) == StateHealthy })
	select {
	case a := <-rejoined:
		if a != addr {
			t.Fatalf("rejoin hook got %q, want %q", a, addr)
		}
	default:
		t.Fatal("worker rejoined without the rejoin hook running")
	}
	if r.Fleet().Rejoins == 0 {
		t.Fatal("rejoin counter never incremented")
	}
}

// TestFleetBuildFailureMarksWorker pins ObserveFailure: a build-path
// dial failure suspects the worker immediately instead of waiting out
// the probe interval.
func TestFleetBuildFailureMarksWorker(t *testing.T) {
	r := newRosterManager(Config{
		Workers:        []string{"127.0.0.1:1"}, // nothing listens here
		ProbeInterval:  time.Hour,               // probes effectively off
		ProbeTimeout:   50 * time.Millisecond,
		ProbeDeadAfter: 2,
	}.withDefaults(), func(string) error { return nil })
	defer r.Close()
	// The first scheduled probe may or may not have fired yet; the
	// explicit failure reports must drive the state machine regardless.
	r.ObserveFailure("127.0.0.1:1")
	r.ObserveFailure("127.0.0.1:1")
	r.ObserveFailure("127.0.0.1:1")
	if st := stateOf(r.Fleet(), "127.0.0.1:1"); st != StateDead {
		t.Fatalf("after 3 observed failures state = %v, want %v", st, StateDead)
	}
	if len(r.Usable()) != 0 {
		t.Fatal("failed worker still usable")
	}
}

// TestFleetCapacityReject pins the slot-capacity advertisement: a
// worker at -slots capacity answers build-reject, and the provider
// degrades rather than over-subscribing it.
func TestFleetCapacityReject(t *testing.T) {
	d, err := StartWorkerDaemon(WorkerConfig{MaxSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ge := servedEntry(t, "g", testGraph(6, 1))
	prov := newRemoteProvider(Config{
		Workers:       []string{d.Addr()},
		Engine:        core.Options{NumNodes: 2, Mode: core.ModeSympleGraph},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
	}.withDefaults(), map[string]*graphEntry{"g": ge})
	defer prov.close()

	spec := ge.Latest().buildSpec("g", variantDirected, core.ModeSympleGraph, 0)
	first, err := prov.build(spec)
	if err != nil {
		t.Fatalf("first build: %v", err)
	}
	defer first.Close()
	if dg, ok := first.(interface{ Degraded() bool }); !ok || dg.Degraded() {
		t.Fatalf("first build should be a full-width ring, got %T degraded=%v", first, ok)
	}

	// The only worker is at capacity: the second build must not steal
	// its slot — it degrades to an in-process engine instead.
	second, err := prov.build(spec)
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	defer second.Close()
	if dg, ok := second.(interface{ Degraded() bool }); !ok || !dg.Degraded() {
		t.Fatalf("over-capacity build not degraded: %T", second)
	}
	if d.slotsBuilt.Load() != 1 {
		t.Fatalf("worker built %d slots, want 1", d.slotsBuilt.Load())
	}
}

// TestFleetKillRejoinServesDegradedThenFullWidth is the chaos
// acceptance test: kill an sgworker mid-query, watch the roster declare
// it dead, keep serving (degraded) on the survivor, restart the worker
// on the same port, and verify the fleet returns to healthy, the pool
// regains full width without a front-end restart, results stay
// bit-identical with the local provider, and no request 5xxes after the
// rejoin window closes.
func TestFleetKillRejoinServesDegradedThenFullWidth(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	cfg := Config{Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitFleet(t, s, "all healthy", func(fs fleetStatus) bool { return fs.Healthy == 2 })

	// Baseline: remote matches local at full width.
	code, full, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=remote")
	if code != http.StatusOK || full.Degraded {
		t.Fatalf("baseline remote: %d degraded=%v %s", code, full.Degraded, body)
	}
	_, local, _ := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=local")
	if !reflect.DeepEqual(full.Result, local.Result) {
		t.Fatalf("baseline diverged: %+v vs %+v", full.Result, local.Result)
	}

	// Kill worker 1 mid-query: the in-flight query fails with the
	// peer-lost classification.
	victim := addrs[1]
	startedBefore := daemons[0].runsStarted.Load() + daemons[1].runsStarted.Load()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if daemons[0].runsStarted.Load()+daemons[1].runsStarted.Load() > startedBefore {
				daemons[1].Close()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	code, _, body = getResponse(t, ts.URL+"/query?graph=g1&algo=pagerank&iters=400&no_cache=1&provider=remote")
	<-killed
	if code != http.StatusInternalServerError {
		t.Fatalf("mid-kill query: %d %s", code, body)
	}

	// The roster declares the victim dead; queries keep flowing on the
	// survivor, flagged degraded, bit-identical to local.
	waitFleet(t, s, "victim dead", func(fs fleetStatus) bool { return stateOf(fs, victim) == StateDead })
	code, degResp, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=remote")
	if code != http.StatusOK {
		t.Fatalf("degraded query: %d %s", code, body)
	}
	if !degResp.Degraded {
		t.Fatalf("survivor-roster response not flagged degraded: %s", body)
	}
	if !reflect.DeepEqual(degResp.Result, local.Result) {
		t.Fatalf("degraded result diverged: %+v vs %+v", degResp.Result, local.Result)
	}

	// Restart the worker on the same port. The roster must walk it
	// through rejoining (preloading the graph by fingerprint) back to
	// healthy — no front-end restart.
	d2, err := StartWorkerDaemon(WorkerConfig{Addr: victim})
	if err != nil {
		t.Fatalf("restarting worker on %s: %v", victim, err)
	}
	t.Cleanup(func() { d2.Close() })
	waitFleet(t, s, "victim healthy again", func(fs fleetStatus) bool { return stateOf(fs, victim) == StateHealthy })
	if d2.graphsCached() == 0 {
		t.Fatal("rejoined worker was not preloaded with the served graphs")
	}

	// Rejoin window closed: every query from here on must succeed, and
	// the pool must regain full width (the restarted worker hosts slots
	// again, responses stop carrying degraded).
	sawFullWidth := false
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; !sawFullWidth && time.Now().Before(deadline); i++ {
		algo := []string{"bfs", "kcore", "pagerank"}[i%3]
		code, r, body := getResponse(t, fmt.Sprintf("%s/query?graph=g1&algo=%s&no_cache=1&provider=remote", ts.URL, algo))
		if code >= 500 {
			t.Fatalf("5xx after rejoin window: %d %s", code, body)
		}
		if code != http.StatusOK {
			t.Fatalf("post-rejoin query: %d %s", code, body)
		}
		if !r.Degraded {
			sawFullWidth = true
		}
	}
	if !sawFullWidth {
		t.Fatal("pool never regained full width after rejoin")
	}
	if d2.slotsBuilt.Load() == 0 {
		t.Fatal("restarted worker never hosted a slot")
	}

	// Full-width answers still match local bit for bit.
	code, after, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=remote")
	if code != http.StatusOK {
		t.Fatalf("final query: %d %s", code, body)
	}
	if !reflect.DeepEqual(after.Result, local.Result) {
		t.Fatalf("post-rejoin result diverged: %+v vs %+v", after.Result, local.Result)
	}
}

// TestFleetSoakKillRestartCycles runs several seeded kill/restart
// cycles back to back: after each cycle the fleet must converge back to
// healthy and keep answering correctly — the make fleet-chaos gate.
func TestFleetSoakKillRestartCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	daemons, addrs := startWorkers(t, 2)
	cfg := Config{Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitFleet(t, s, "all healthy", func(fs fleetStatus) bool { return fs.Healthy == 2 })
	_, want, _ := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=local")

	cur := daemons[1]
	for cycle := 0; cycle < 3; cycle++ {
		victim := addrs[1]
		cur.Close()
		waitFleet(t, s, "victim dead", func(fs fleetStatus) bool { return stateOf(fs, victim) == StateDead })

		// Degraded serving stays correct while the worker is down.
		code, r, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=remote")
		if code != http.StatusOK || !reflect.DeepEqual(r.Result, want.Result) {
			t.Fatalf("cycle %d degraded: %d %s", cycle, code, body)
		}

		d, err := StartWorkerDaemon(WorkerConfig{Addr: victim})
		if err != nil {
			t.Fatalf("cycle %d restart: %v", cycle, err)
		}
		t.Cleanup(func() { d.Close() })
		cur = d
		waitFleet(t, s, "victim healthy", func(fs fleetStatus) bool { return stateOf(fs, victim) == StateHealthy })

		code, r, body = getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=remote")
		if code != http.StatusOK || !reflect.DeepEqual(r.Result, want.Result) {
			t.Fatalf("cycle %d recovered: %d %s", cycle, code, body)
		}
	}
}
