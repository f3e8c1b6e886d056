package comm

import (
	"errors"
	"testing"
	"time"
)

// chatter drives a fixed message schedule over wrapped endpoints and
// returns how many sends failed. The schedule is deterministic, so two
// identically seeded plans must inject identical fault sequences.
func chatter(t *testing.T, eps []Endpoint, rounds int) (sendErrs int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		if err := eps[0].SendBufs(1, KindUpdate, int32(r), Buffers{[]byte{byte(r)}}); err != nil {
			var ie *InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("round %d: unexpected send error %v", r, err)
			}
			sendErrs++
			continue
		}
		if _, err := eps[1].Recv(0, KindUpdate, int32(r)); err != nil {
			t.Fatalf("round %d: recv: %v", r, err)
		}
	}
	return sendErrs
}

func TestFaultPlanDeterministicSendErrors(t *testing.T) {
	run := func(seed uint64) (int, FaultCounters) {
		plan := &FaultPlan{Seed: seed, SendErrProb: 0.3}
		c := NewMemCluster(2)
		defer c.Close()
		eps := plan.Wrap(c.Endpoints())
		errs := chatter(t, eps, 200)
		return errs, plan.Counters()
	}
	errs1, c1 := run(7)
	errs2, c2 := run(7)
	if errs1 != errs2 || c1 != c2 {
		t.Fatalf("same seed diverged: %d/%+v vs %d/%+v", errs1, c1, errs2, c2)
	}
	if errs1 == 0 || errs1 == 200 {
		t.Fatalf("p=0.3 over 200 sends injected %d errors", errs1)
	}
	if c1.SendErrs != int64(errs1) {
		t.Fatalf("counter %d, observed %d", c1.SendErrs, errs1)
	}
	errs3, _ := run(8)
	if errs3 == errs1 {
		t.Logf("seeds 7 and 8 coincidentally injected the same count %d", errs1)
	}
}

func TestFaultPlanDelaySpikes(t *testing.T) {
	plan := &FaultPlan{Seed: 1, DelayProb: 1.0, Delay: 5 * time.Millisecond}
	c := NewMemCluster(2)
	defer c.Close()
	eps := plan.Wrap(c.Endpoints())
	start := time.Now()
	const rounds = 5
	chatter(t, eps, rounds)
	if elapsed := time.Since(start); elapsed < rounds*5*time.Millisecond {
		t.Fatalf("5 always-delayed sends took %v", elapsed)
	}
	if got := plan.Counters().Delays; got != rounds {
		t.Fatalf("delay counter = %d, want %d", got, rounds)
	}
}

func TestFaultPlanCrashAtSuperstep(t *testing.T) {
	plan := &FaultPlan{Seed: 1, CrashNode: 1, CrashAtSuperstep: 3}
	c := NewMemCluster(2)
	defer c.Close()
	eps := plan.Wrap(c.Endpoints())

	// Before superstep 3 the node works.
	ObserveSuperstep(eps[1], 2)
	if err := eps[1].SendBufs(0, KindControl, 0, nil); err != nil {
		t.Fatalf("pre-crash send: %v", err)
	}
	if _, err := eps[0].Recv(1, KindControl, 0); err != nil {
		t.Fatal(err)
	}

	// At superstep 3 every operation fails with a *CrashError.
	ObserveSuperstep(eps[1], 3)
	var ce *CrashError
	if err := eps[1].SendBufs(0, KindControl, 1, nil); !errors.As(err, &ce) {
		t.Fatalf("post-crash send returned %v, want *CrashError", err)
	}
	if ce.Node != 1 || ce.Superstep != 3 {
		t.Fatalf("crash context = %+v", ce)
	}
	if _, err := eps[1].Recv(0, KindControl, 1); !errors.As(err, &ce) {
		t.Fatalf("post-crash recv returned %v, want *CrashError", err)
	}
	if !plan.CrashFired() || plan.Counters().Crashes != 1 {
		t.Fatalf("crash bookkeeping: fired=%v counters=%+v", plan.CrashFired(), plan.Counters())
	}

	// The crash fires once per plan: a re-formed cluster (fresh wrap,
	// same plan) runs fault-free — the recovery scenario.
	c2 := NewMemCluster(2)
	defer c2.Close()
	eps2 := plan.Wrap(c2.Endpoints())
	ObserveSuperstep(eps2[1], 5)
	if err := eps2[1].SendBufs(0, KindControl, 2, nil); err != nil {
		t.Fatalf("post-recovery send: %v", err)
	}
	if plan.Counters().Crashes != 1 {
		t.Fatalf("crash fired again: %+v", plan.Counters())
	}
}

func TestFaultPlanPartitionWindow(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Partitions: []PartitionWindow{
		{A: 0, B: 1, FromStep: 2, ToStep: 4, Drop: true},
	}}
	c := NewMemCluster(3)
	defer c.Close()
	eps := plan.Wrap(c.Endpoints())

	// Outside the window: delivered.
	if err := eps[0].SendBufs(1, KindUpdate, 0, Buffers{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].RecvTimeout(0, KindUpdate, 0, time.Second); err != nil {
		t.Fatalf("pre-window recv: %v", err)
	}

	// Inside the window: silently dropped; the receiver's deadline
	// receive must time out — the stall substrate.
	ObserveSuperstep(eps[0], 2)
	if err := eps[0].SendBufs(1, KindUpdate, 1, Buffers{[]byte("b")}); err != nil {
		t.Fatalf("dropped send must report success: %v", err)
	}
	var te *TimeoutError
	if _, err := eps[1].RecvTimeout(0, KindUpdate, 1, 50*time.Millisecond); !errors.As(err, &te) {
		t.Fatalf("partitioned recv returned %v, want *TimeoutError", err)
	}
	// Unrelated pair unaffected.
	if err := eps[0].SendBufs(2, KindUpdate, 0, Buffers{[]byte("c")}); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[2].RecvTimeout(0, KindUpdate, 0, time.Second); err != nil {
		t.Fatalf("third-party recv: %v", err)
	}

	// Past the window: traffic flows again. The dropped tag-1 message
	// never entered the queue, so the stream continues at tag 2.
	ObserveSuperstep(eps[0], 4)
	if err := eps[0].SendBufs(1, KindUpdate, 2, Buffers{[]byte("d")}); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].RecvTimeout(0, KindUpdate, 2, time.Second); err != nil {
		t.Fatalf("post-window recv: %v", err)
	}
	if got := plan.Counters().Drops; got != 1 {
		t.Fatalf("drop counter = %d", got)
	}
}
