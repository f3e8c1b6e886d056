package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// The roster manager replaces the static worker host list with a live
// view of the fleet. One probe loop per configured worker sends a
// control-protocol ping on a fresh connection and keeps a small state
// machine per worker:
//
//	healthy ──probe fails──▶ suspect ──ProbeDeadAfter consecutive──▶ dead
//	   ▲                        │ probe succeeds                       │
//	   └────────────────────────┘            probe succeeds            │
//	   ▲                                                               ▼
//	   └──────── rejoin hook succeeds ◀───────────────────────── rejoining
//
// Healthy and suspect workers are probed on a fixed interval with full
// jitter; dead workers are probed on an exponential backoff capped at
// ProbeBackoffCap, so a crashed fleet does not get hammered while a
// restarted worker is still noticed within a few seconds. A worker
// coming back from dead passes through rejoining: the rejoin hook
// (graph preloading, in the remote provider) runs before the worker is
// offered to new slot builds, so re-admission never stalls a build on a
// cold graph transfer.

// WorkerState is the typed health state of one fleet member. Compare
// states with the constants below — never by formatting to a string —
// so the compiler (and the sgvet fleetstate check) can catch typos.
type WorkerState int32

const (
	// StateHealthy workers answer probes and are offered to slot builds.
	StateHealthy WorkerState = iota
	// StateSuspect workers missed at least one probe; they are excluded
	// from new builds but not yet declared gone.
	StateSuspect
	// StateDead workers missed ProbeDeadAfter consecutive probes; probing
	// drops to a capped backoff until they answer again.
	StateDead
	// StateRejoining workers answered a probe after being dead; the
	// rejoin hook is re-shipping state before they serve builds again.
	StateRejoining
)

func (s WorkerState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateRejoining:
		return "rejoining"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its name, so /statusz and chaos
// tests read "healthy" rather than an opaque integer.
func (s WorkerState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the marshalled name, so Status round-trips
// through JSON (statusz scrapers, test clients).
func (s *WorkerState) UnmarshalJSON(data []byte) error {
	name := strings.Trim(string(data), `"`)
	for _, st := range []WorkerState{StateHealthy, StateSuspect, StateDead, StateRejoining} {
		//sgvet:ignore fleetstate this IS the name→enum decoding table, the inverse of String()
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("unknown worker state %q", name)
}

// pongMsg is a worker's answer to a control-plane ping: its current
// load and cache state, which the roster folds into scheduling
// decisions (capacity-aware slot placement, rejoin detection).
type pongMsg struct {
	SlotsActive  int `json:"slots_active"`
	MaxSlots     int `json:"max_slots"` // 0 = unlimited
	GraphsCached int `json:"graphs_cached"`
}

// workerHealth is the mutable per-worker record; guarded by roster.mu.
type workerHealth struct {
	addr     string
	state    WorkerState
	fails    int // consecutive probe failures
	deadFor  uint64
	lastRTT  time.Duration
	lastSeen time.Time
	pong     pongMsg
}

// FleetWorker is one worker's row in a fleet snapshot.
type FleetWorker struct {
	Addr         string      `json:"addr"`
	State        WorkerState `json:"state"`
	Fails        int         `json:"consecutive_fails,omitempty"`
	LastRTTMs    float64     `json:"last_rtt_ms"`
	SlotsActive  int         `json:"slots_active"`
	MaxSlots     int         `json:"max_slots"`
	GraphsCached int         `json:"graphs_cached"`
}

// fleetStatus is the roster's snapshot for /statusz and tests. The
// counters are monotonic; DegradedBuilds and DeltaShips are the remote
// provider's, the rest the roster's.
type fleetStatus struct {
	Workers        []FleetWorker `json:"workers"`
	Healthy        int           `json:"healthy"`
	Total          int           `json:"total"`
	Degraded       bool          `json:"degraded"`
	Probes         int64         `json:"probes"`
	ProbeFailures  int64         `json:"probe_failures"`
	Rejoins        int64         `json:"rejoins"`
	Transitions    int64         `json:"transitions"`
	ProbeRTT       histJSON      `json:"probe_rtt"`
	DegradedBuilds int64         `json:"degraded_builds"`
	DeltaShips     int64         `json:"delta_ships"`
}

// rosterManager runs the probe loops and answers scheduling queries. It
// reads the server's Config: Workers, the four Probe* settings and Logf.
type rosterManager struct {
	cfg      Config
	onRejoin func(addr string) error
	mu       sync.Mutex
	workers  map[string]*workerHealth
	order    []string
	stop     chan struct{}
	wg       sync.WaitGroup

	probes        atomic.Int64
	probeFailures atomic.Int64
	rejoins       atomic.Int64
	transitions   atomic.Int64
	rtt           obs.Histogram
}

// newRosterManager starts one probe loop per worker. Every worker
// begins healthy — the fleet was just configured, and an immediate
// first probe corrects optimism within one interval. onRejoin runs when
// a dead worker answers again, before it is offered to builds; a
// non-nil error keeps the worker dead until a later probe retries it.
func newRosterManager(cfg Config, onRejoin func(addr string) error) *rosterManager {
	r := &rosterManager{
		cfg:      cfg,
		onRejoin: onRejoin,
		workers:  make(map[string]*workerHealth, len(cfg.Workers)),
		order:    append([]string(nil), cfg.Workers...),
		stop:     make(chan struct{}),
	}
	for _, addr := range cfg.Workers {
		r.workers[addr] = &workerHealth{addr: addr, state: StateHealthy}
	}
	for _, addr := range cfg.Workers {
		r.wg.Add(1)
		go r.probeLoop(addr)
	}
	return r
}

// Close stops the probe loops and waits for them.
func (r *rosterManager) Close() {
	close(r.stop)
	r.wg.Wait()
}

// Usable returns the workers slot builds may target — the healthy
// members, in configured order so node numbering stays deterministic.
func (r *rosterManager) Usable() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.order))
	for _, addr := range r.order {
		if r.workers[addr].state == StateHealthy {
			out = append(out, addr)
		}
	}
	return out
}

// UsableWithCapacity filters Usable down to workers advertising a free
// slot; the pool's stale-on-grow check uses it so a worker that is
// alive but full does not trigger rebuild churn.
func (r *rosterManager) UsableWithCapacity() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.order))
	for _, addr := range r.order {
		w := r.workers[addr]
		if w.state == StateHealthy && (w.pong.MaxSlots == 0 || w.pong.SlotsActive < w.pong.MaxSlots) {
			out = append(out, addr)
		}
	}
	return out
}

// IsUsable reports whether addr is currently offered to builds.
func (r *rosterManager) IsUsable(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[addr]
	return ok && w.state == StateHealthy
}

// ObserveFailure records a build-path failure (dial refused, handshake
// died) as a missed probe, so scheduling reacts immediately instead of
// waiting out the probe interval.
func (r *rosterManager) ObserveFailure(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[addr]
	if !ok {
		return
	}
	r.recordFailureLocked(w)
}

// Fleet snapshots every worker for /statusz.
func (r *rosterManager) Fleet() fleetStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	fs := fleetStatus{
		Total:         len(r.order),
		Probes:        r.probes.Load(),
		ProbeFailures: r.probeFailures.Load(),
		Rejoins:       r.rejoins.Load(),
		Transitions:   r.transitions.Load(),
		ProbeRTT:      histToJSON(&r.rtt),
	}
	for _, addr := range r.order {
		w := r.workers[addr]
		if w.state == StateHealthy {
			fs.Healthy++
		}
		fs.Workers = append(fs.Workers, FleetWorker{
			Addr:         w.addr,
			State:        w.state,
			Fails:        w.fails,
			LastRTTMs:    float64(w.lastRTT) / float64(time.Millisecond),
			SlotsActive:  w.pong.SlotsActive,
			MaxSlots:     w.pong.MaxSlots,
			GraphsCached: w.pong.GraphsCached,
		})
	}
	sort.SliceStable(fs.Workers, func(i, j int) bool { return fs.Workers[i].Addr < fs.Workers[j].Addr })
	fs.Degraded = fs.Healthy < fs.Total
	return fs
}

// probeLoop drives one worker's state machine until Close.
func (r *rosterManager) probeLoop(addr string) {
	defer r.wg.Done()
	h := fnv.New64a()
	h.Write([]byte(addr))
	bo := comm.Backoff{Base: r.cfg.ProbeInterval, Cap: r.cfg.ProbeBackoffCap, Key: h.Sum64()}
	timer := time.NewTimer(0) // first probe fires immediately
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		rtt, pong, err := r.probe(addr)
		r.probes.Add(1)

		r.mu.Lock()
		w := r.workers[addr]
		if err != nil {
			r.probeFailures.Add(1)
			r.recordFailureLocked(w)
		} else {
			r.rtt.Observe(rtt)
			w.lastRTT = rtt
			w.lastSeen = time.Now()
			w.pong = pong
			w.fails = 0
			w.deadFor = 0
			switch w.state {
			case StateSuspect:
				r.transitionLocked(w, StateHealthy)
			case StateDead:
				r.transitionLocked(w, StateRejoining)
			}
		}
		state := w.state
		deadFor := w.deadFor
		r.mu.Unlock()

		if state == StateRejoining {
			// Run the rejoin hook outside the lock — it ships graphs.
			rejoinErr := r.onRejoin(addr)
			r.mu.Lock()
			if rejoinErr != nil {
				r.cfg.Logf("server: worker %s rejoin failed, keeping dead: %v", addr, rejoinErr)
				r.transitionLocked(w, StateDead)
			} else if w.state == StateRejoining {
				r.rejoins.Add(1)
				r.transitionLocked(w, StateHealthy)
			}
			state = w.state
			r.mu.Unlock()
		}

		// Dead workers back off; live ones re-probe on the interval,
		// jittered so a fleet of front-ends decorrelates.
		if state == StateDead {
			timer.Reset(bo.Delay(deadFor))
		} else {
			timer.Reset(bo.Delay(0))
		}
	}
}

// recordFailureLocked advances the failure side of the state machine.
func (r *rosterManager) recordFailureLocked(w *workerHealth) {
	w.fails++
	switch w.state {
	case StateHealthy, StateRejoining:
		r.transitionLocked(w, StateSuspect)
	case StateSuspect:
		if w.fails >= r.cfg.ProbeDeadAfter {
			r.transitionLocked(w, StateDead)
		}
	case StateDead:
		w.deadFor++
	}
}

func (r *rosterManager) transitionLocked(w *workerHealth, to WorkerState) {
	if w.state == to {
		return
	}
	r.transitions.Add(1)
	r.cfg.Logf("server: worker %s %v -> %v (fails=%d)", w.addr, w.state, to, w.fails)
	w.state = to
	if to == StateDead {
		w.deadFor = 0
	}
}

// probe performs one dial+ping round trip on a fresh control
// connection.
func (r *rosterManager) probe(addr string) (time.Duration, pongMsg, error) {
	start := time.Now()
	cc, err := comm.DialCtrl(addr, r.cfg.ProbeTimeout)
	if err != nil {
		return 0, pongMsg{}, err
	}
	defer cc.Close()
	cc.SetDeadline(time.Now().Add(r.cfg.ProbeTimeout))
	if err := cc.Send("ping", nil); err != nil {
		return 0, pongMsg{}, err
	}
	var pong pongMsg
	if err := cc.Expect("pong", &pong); err != nil {
		return 0, pongMsg{}, err
	}
	return time.Since(start), pong, nil
}
