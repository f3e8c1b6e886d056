package bench

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// testSuite returns a small suite so harness tests stay fast.
func testSuite() *Suite { return NewSuite(8) }

func testConfig() Config {
	return Config{Nodes: 4, BFSRoots: 2, KCoreK: 4, KMeansIters: 2, SampleRounds: 2, Seed: 7}
}

func TestSuiteDatasets(t *testing.T) {
	s := testSuite()
	if len(s.Main) != 5 || len(s.Large) != 2 {
		t.Fatalf("suite has %d main, %d large", len(s.Main), len(s.Large))
	}
	names := map[string]bool{}
	for _, d := range s.All() {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		names[d.Name] = true
		g := d.Graph()
		if g.NumEdges() == 0 {
			t.Fatalf("%s is empty", d.Name)
		}
		if g != d.Graph() {
			t.Fatalf("%s rebuilt on second access", d.Name)
		}
	}
	if s.ByName("tw") == nil || s.ByName("nope") != nil {
		t.Fatal("ByName wrong")
	}
	// The cl stand-in must be low-skew relative to the R-MAT graphs.
	cl := s.ByName("cl").Graph()
	tw := s.ByName("tw").Graph()
	if cl.HighDegreeFraction(32) > tw.HighDegreeFraction(32) {
		t.Fatalf("cl skew %.3f >= tw skew %.3f", cl.HighDegreeFraction(32), tw.HighDegreeFraction(32))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Nodes == 0 || c.BFSRoots == 0 || c.KCoreK == 0 || c.KMeansIters == 0 || c.SampleRounds == 0 || c.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	c2 := Config{Nodes: 3}.Defaults()
	if c2.Nodes != 3 {
		t.Fatal("explicit value overridden")
	}
}

func TestRunVariantAllAlgos(t *testing.T) {
	s := testSuite()
	d := s.ByName("s27")
	for _, a := range Algos {
		m, err := Run(VariantSympleGraph, a, d, testConfig())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !m.Supported || m.EdgesTraversed == 0 {
			t.Fatalf("%s: %+v", a, m)
		}
		if m.System != "SympleGraph" || m.Algo != a || m.Dataset != "s27" {
			t.Fatalf("%s: labels %+v", a, m)
		}
	}
}

func TestRunDGalois(t *testing.T) {
	s := testSuite()
	d := s.ByName("s27")
	m, err := Run(VariantDGalois, AlgoMIS, d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Supported || m.UpdateBytes == 0 {
		t.Fatalf("%+v", m)
	}
	samp, err := Run(VariantDGalois, AlgoSampling, d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if samp.Supported {
		t.Fatal("D-Galois sampling should be unsupported")
	}
}

func TestRunSequential(t *testing.T) {
	s := testSuite()
	d := s.ByName("tw")
	for _, a := range Algos {
		m, err := Run(VariantSequential, a, d, testConfig())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !m.Supported {
			t.Fatalf("%s unsupported", a)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(testSuite())
	for _, name := range []string{"tw", "fr", "s27", "s28", "s29", "gsh", "cl"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 missing %s:\n%s", name, out)
		}
	}
}

// TestMatrixAndMainTables measures a reduced matrix and checks the shape
// claims the paper's tables make: SympleGraph traverses fewer edges than
// Gemini, dependency traffic only exists for SympleGraph, and rendering
// includes all cells.
func TestMatrixAndMainTables(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in short mode")
	}
	s := testSuite()
	cfg := testConfig()
	m := &Matrix{}
	cells, err := m.Main(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 datasets × 5 algos × 3 systems.
	if len(cells) != 75 || len(m.cells) != 75 {
		t.Fatalf("%d cells, %d measured, want 75", len(cells), len(m.cells))
	}
	for _, a := range []Algo{AlgoBFS, AlgoKCore, AlgoMIS, AlgoKMeans} {
		for _, d := range s.Main {
			gem, sym, err := versus(m, a, d, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", a, d.Name, err)
			}
			if sym.EdgesTraversed > gem.EdgesTraversed {
				t.Errorf("%s/%s: SympleGraph traversed %d > Gemini %d", a, d.Name,
					sym.EdgesTraversed, gem.EdgesTraversed)
			}
			if gem.DependencyBytes != 0 || sym.DependencyBytes == 0 {
				t.Errorf("%s/%s: dep bytes gem=%d sym=%d", a, d.Name,
					gem.DependencyBytes, sym.DependencyBytes)
			}
		}
	}
	t4, err := Table4(s, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4, "Speedup") || !strings.Contains(t4, "N/A") {
		t.Fatalf("Table 4:\n%s", t4)
	}
	t5, err := Table5(s, m, cfg)
	if err != nil || !strings.Contains(t5, "SympG./Gemini") {
		t.Fatalf("Table 5 (%v):\n%s", err, t5)
	}
	t6, err := Table6(s, m, cfg)
	if err != nil || !strings.Contains(t6, "SymG.dep") {
		t.Fatalf("Table 6 (%v):\n%s", err, t6)
	}
	// The tables read the exported cells; Table 4 adds only its five
	// sequential K-core cells.
	if len(m.cells) != 80 {
		t.Fatalf("%d cells measured after Tables 4-6, want 80", len(m.cells))
	}
}

func TestFigure10SeriesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	rows, err := Figure10(testSuite(), &Matrix{}, testConfig(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for _, sys := range []string{"Gemini", "SympleGraph", "D-Galois"} {
			if r.Seconds[sys] <= 0 {
				t.Fatalf("node %d system %s: %g", r.Nodes, sys, r.Seconds[sys])
			}
		}
	}
	out := FormatFigure10(rows)
	if !strings.Contains(out, "#nodes") {
		t.Fatal(out)
	}
	if FormatFigure10(nil) == "" {
		t.Fatal("empty series render failed")
	}
}

func TestFigure11AblationComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in short mode")
	}
	s := NewSuite(7)
	cfg := testConfig()
	rows, err := Figure11(s, &Matrix{}, cfg, Algos)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Main) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Normalized[VariantCirculant.Name] != 1.0 {
			t.Fatalf("baseline not normalized: %+v", r)
		}
		for name, v := range r.Normalized {
			if v <= 0 {
				t.Fatalf("%s/%s: %g", r.Dataset, name, v)
			}
		}
	}
	if out := FormatFigure11(rows); !strings.Contains(out, "Circulant") {
		t.Fatal(out)
	}
}

func TestCOSTRenders(t *testing.T) {
	out, err := COST(testSuite(), &Matrix{}, testConfig(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "single-thread") || !strings.Contains(out, "SympleGraph") {
		t.Fatal(out)
	}
}

func TestTable2And3Render(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in short mode")
	}
	s := testSuite()
	cfg := testConfig()
	m := &Matrix{}
	t2, err := Table2(s, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "Speedup") || strings.Count(t2, "\n") < 10 {
		t.Fatalf("Table 2:\n%s", t2)
	}
	t3, err := Table3(s, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t3, "gsh") || !strings.Contains(t3, "cl") {
		t.Fatalf("Table 3:\n%s", t3)
	}
}

func TestTable7Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	s := NewSuite(7)
	out, err := Table7(s, &Matrix{}, testConfig(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "D-Galois") {
		t.Fatal(out)
	}
}

// TestMatrixMeasuresCellOnce checks that a cell is measured on first
// request only: asking again returns the stored measurement although
// Defaults gives each request a fresh DefaultLink, and after Table 7,
// COST adds no engine spans — its SympleGraph cells are Table 7's and
// its sequential cell is not traced.
func TestMatrixMeasuresCellOnce(t *testing.T) {
	s := NewSuite(7)
	tr := obs.NewCapturingTracer(0)
	cfg := testConfig()
	cfg.Tracer = tr
	m := &Matrix{}
	d := s.ByName("s27")
	first, err := m.Cell(VariantSympleGraph, AlgoBFS, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := len(tr.Events())
	again, err := m.Cell(VariantSympleGraph, AlgoBFS, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || len(m.cells) != 1 || len(tr.Events()) != spans {
		t.Fatalf("second request re-measured: %d cells, %d spans then %d", len(m.cells), spans, len(tr.Events()))
	}

	nodes := []int{2, 4}
	if _, err := Table7(s, m, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	cells, spans := len(m.cells), len(tr.Events())
	if spans == 0 || tr.Dropped() != 0 {
		t.Fatalf("Table 7 captured %d spans, dropped %d", spans, tr.Dropped())
	}
	if _, err := COST(s, m, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Events()); got != spans {
		t.Fatalf("COST after Table 7 recorded %d engine spans, want 0", got-spans)
	}
	if got := len(m.cells); got != cells+1 {
		t.Fatalf("COST after Table 7 measured %d cells, want 1 (the sequential one)", got-cells)
	}
}
