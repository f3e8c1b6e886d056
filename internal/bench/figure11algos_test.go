package bench

import (
	"testing"
	"time"

	"repro/internal/comm"
)

// TestFigure11DoubleBufferingIsLive is the exact half of Figure 11's DB
// column: on every dataset VariantDB differs from VariantCirculant in
// nothing but NumBuffers, so its sampling run must send more dependency
// frames — the step's state cut into segments — while traversing the same
// edges and shipping the same update bytes and the same dependency
// payload once comm's 13-byte accounted frame headers are taken off.
// Double buffering is not a no-op and changes nothing else.
func TestFigure11DoubleBufferingIsLive(t *testing.T) {
	const frameHeader = 13
	cfg := Config{Nodes: 4, SampleRounds: 2, Seed: 3, Link: &comm.LinkModel{}}
	for _, d := range NewSuite(9).Main {
		circ, err := Run(VariantCirculant, AlgoSampling, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Run(VariantDB, AlgoSampling, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if db.dependencyFrames <= circ.dependencyFrames {
			t.Fatalf("%s: %d dependency frames with double buffering, %d without", d.Name, db.dependencyFrames, circ.dependencyFrames)
		}
		if db.EdgesTraversed != circ.EdgesTraversed || db.UpdateBytes != circ.UpdateBytes {
			t.Fatalf("%s: double buffering moved the work: %+v vs %+v", d.Name, db, circ)
		}
		if got, want := db.DependencyBytes-frameHeader*db.dependencyFrames,
			circ.DependencyBytes-frameHeader*circ.dependencyFrames; got != want {
			t.Fatalf("%s: %d dependency payload bytes with double buffering, %d without", d.Name, got, want)
		}
	}
}

// TestFigure11AlgosDependencyBound exercises the dependency-bound
// ablation path sgbench uses: Figure 11 over sampling only, on a slow
// link. The
// differentiated-propagation variant must not be slower than
// circulant-only (it sends ~6× less dependency data), and the
// double-buffering variant must be faster: a segment crosses the link
// while the next range scans, and the successor starts on it before the
// rest of the step's state has left.
//
// Suite scale 11 is the smallest where the DB column can be told from
// noise: run on the commit before double buffering reached the dense
// driver, where +DB was a no-op, the column read 0.97–1.05 (one cell in
// fifteen at 1.19); with it, 0.75–0.93. At scale 9 both spread ±15 %.
// Almost all of the wall time is simulated link sleep.
func TestFigure11AlgosDependencyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-link sweep")
	}
	s := NewSuite(11)
	cfg := Config{
		Nodes: 4, SampleRounds: 2, Seed: 3, Repeats: 3,
		Link: &comm.LinkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 1e6},
	}
	// The box is shared: one co-tenant burst can slow a variant's cells on
	// several datasets at once, so a failed trend is re-measured once, in
	// a fresh matrix.
	var rows []Figure11Row
	for attempt := 0; attempt < 2; attempt++ {
		var err error
		if rows, err = Figure11(s, &Matrix{}, cfg, []Algo{AlgoSampling}); err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(s.Main) {
			t.Fatalf("%d rows", len(rows))
		}
		dpHolds, dbHolds := 0, 0
		for _, r := range rows {
			if r.Normalized[VariantCirculant.Name] != 1.0 {
				t.Fatalf("baseline not 1.0: %+v", r)
			}
			if r.Normalized[VariantDP.Name] <= 1.05 {
				dpHolds++
			}
			if r.Normalized[VariantDB.Name] <= 0.95 {
				dbHolds++
			}
		}
		// Allow noise on one dataset but demand the trend.
		if dpHolds >= len(rows)-1 && dbHolds >= len(rows)-1 {
			return
		}
		t.Logf("attempt %d: DP ≤ 1.05 on %d/%d datasets, DB ≤ 0.95 on %d/%d: %+v",
			attempt, dpHolds, len(rows), dbHolds, len(rows), rows)
	}
	t.Fatalf("the dependency-bound trend did not hold twice: %+v", rows)
}
