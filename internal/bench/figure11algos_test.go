package bench

import (
	"slices"
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
// ablation sgbench's Figure 11 reports: sampling only, on a slow link.
// The differentiated-propagation variant must not be slower than
// circulant-only (it sends ~6× less dependency data), and the
// double-buffering variant must be faster: a segment crosses the link
// while the next range scans, and the successor starts on it before the
// rest of the step's state has left.
//
// The link is bandwidth-bound: two ABBA cycles over the five datasets
// took 13.0 s at this 100 µs latency and 13.1 s at 300 µs, but 50.4 s at
// 250 kB/s instead of 1 MB/s. So what +DB hides here is a segment's
// transfer time, not the 100 µs latency.
//
// Suite scale 11 is the smallest where the DB column can be told from
// noise: run on the commit before double buffering reached the dense
// driver, where +DB was a no-op, the column read 0.97–1.05 (one cell in
// fifteen at 1.19); with it, 0.75–0.93. At scale 9 both spread ±15 %.
// Almost all of the wall time is simulated link sleep.
//
// The box is shared, and a co-tenant burst that lands on one variant's
// back-to-back repeats skews its ratio. So each dataset's three variants
// run interleaved in ABBA order — C DB DP, DP DB C, four times over —
// and each variant is compared with the circulant run next to it: a
// dataset's ratio is the median of its eight paired ratios, so a burst
// moves a pair's two runs together and an outlier pair moves nothing.
func TestFigure11AlgosDependencyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-link sweep")
	}
	const cycles = 4
	s := NewSuite(11)
	cfg := Config{
		Nodes: 4, SampleRounds: 2, Seed: 3,
		Link: &comm.LinkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 1e6},
	}
	abba := []Variant{VariantCirculant, VariantDB, VariantDP, VariantDP, VariantDB, VariantCirculant}
	dpHolds, dbHolds := 0, 0
	for _, d := range s.Main {
		secs := map[string][]float64{} // per variant, in run order
		for range cycles {
			for _, v := range abba {
				m, err := Run(v, AlgoSampling, d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				secs[v.Name] = append(secs[v.Name], m.Seconds)
			}
		}
		// The i-th run of every variant sits in the same half-cycle.
		pairedRatio := func(v Variant) float64 {
			var r []float64
			for i, sec := range secs[v.Name] {
				r = append(r, sec/secs[VariantCirculant.Name][i])
			}
			slices.Sort(r)
			return (r[len(r)/2-1] + r[len(r)/2]) / 2
		}
		db, dp := pairedRatio(VariantDB), pairedRatio(VariantDP)
		t.Logf("%s: +DB %.3f, +DP %.3f", d.Name, db, dp)
		if dp <= 1.05 {
			dpHolds++
		}
		if db <= 0.95 {
			dbHolds++
		}
	}
	// Allow noise on one dataset but demand the trend.
	if n := len(s.Main); dpHolds < n-1 || dbHolds < n-1 {
		t.Fatalf("DP ≤ 1.05 on %d/%d datasets, DB ≤ 0.95 on %d/%d", dpHolds, n, dbHolds, n)
	}
}
