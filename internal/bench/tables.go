package bench

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
)

func newTable(header ...string) (*strings.Builder, *tabwriter.Writer) {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	return &b, w
}

// Table1 renders dataset statistics: |V|, |E| and the high-degree
// fraction |V'|/|V| at the dependency threshold (paper Table 1).
func Table1(s *Suite) string {
	b, w := newTable("Graph", "|V|", "|E|", "|V'|/|V|")
	for _, d := range s.All() {
		g := d.Graph()
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\n", d.Name, g.NumVertices(), g.NumEdges(),
			g.HighDegreeFraction(core.DefaultDepThreshold))
	}
	w.Flush()
	return b.String()
}

// Table2 renders the K-core K-sweep on the two social-graph stand-ins
// (paper Table 2: K ∈ {4, 8, 16, 32, 64}, Gemini vs SympleGraph).
func Table2(s *Suite, m *Matrix, cfg Config) (string, error) {
	b, w := newTable("Graph", "K", "Gemini(s)", "SympleG.(s)", "Speedup", "EdgeRatio")
	for _, name := range []string{"tw", "fr"} {
		d := s.ByName(name)
		for _, k := range []int{4, 8, 16, 32, 64} {
			kcfg := cfg
			kcfg.KCoreK = k
			gem, sym, err := versus(m, AlgoKCore, d, kcfg)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%.2f\t%.2f\n", name, k,
				gem.Seconds, sym.Seconds, ratio(gem.Seconds, sym.Seconds),
				ratio(float64(sym.EdgesTraversed), float64(gem.EdgesTraversed)))
		}
	}
	w.Flush()
	return b.String(), nil
}

// versus returns the Gemini and SympleGraph cells of a on d.
func versus(m *Matrix, a Algo, d *Dataset, cfg Config) (gem, sym Measurement, err error) {
	if gem, err = m.Cell(VariantGemini, a, d, cfg); err != nil {
		return
	}
	sym, err = m.Cell(VariantSympleGraph, a, d, cfg)
	return
}

// Table3 renders the large-graph comparison (paper Table 3: gsh and cl,
// all five algorithms, Gemini vs SympleGraph). The cl stand-in is
// low-skew, reproducing the BFS≈1.0 rows where bottom-up is rarely
// chosen.
func Table3(s *Suite, m *Matrix, cfg Config) (string, error) {
	b, w := newTable("Graph", "App", "Gemini(s)", "SympleG.(s)", "Speedup")
	for _, d := range s.Large {
		for _, a := range Algos {
			gem, sym, err := versus(m, a, d, cfg)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.2f\n", d.Name, a, gem.Seconds, sym.Seconds,
				ratio(gem.Seconds, sym.Seconds))
		}
	}
	w.Flush()
	return b.String(), nil
}

// Table4 renders the main result (paper Table 4): execution time per
// system with SympleGraph speedup over the best baseline; the K-core rows
// carry the sequential Matula–Beck time in parentheses.
func Table4(s *Suite, m *Matrix, cfg Config) (string, error) {
	b, w := newTable("App", "Graph", "Gemini(s)", "D-Galois(s)", "SymG.(s)", "Speedup")
	for _, a := range Algos {
		for _, d := range s.Main {
			gem, sym, err := versus(m, a, d, cfg)
			if err != nil {
				return "", err
			}
			dg, err := m.Cell(VariantDGalois, a, d, cfg)
			if err != nil {
				return "", err
			}
			gemCol := fmt.Sprintf("%.4f", gem.Seconds)
			if a == AlgoKCore {
				mb, err := m.Cell(VariantSequential, AlgoKCore, d, cfg)
				if err != nil {
					return "", err
				}
				gemCol = fmt.Sprintf("%.4f(%.4f)", gem.Seconds, mb.Seconds)
			}
			dgCol := "N/A"
			best := gem.Seconds
			if dg.Supported {
				dgCol = fmt.Sprintf("%.4f", dg.Seconds)
				if dg.Seconds < best {
					best = dg.Seconds
				}
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.4f\t%.2f\n", a, d.Name, gemCol, dgCol,
				sym.Seconds, ratio(best, sym.Seconds))
		}
	}
	w.Flush()
	return b.String(), nil
}

// Table5 renders edge-traversal counts normalized to the dataset's edge
// total, with the SympleGraph/Gemini ratio (paper Table 5).
func Table5(s *Suite, m *Matrix, cfg Config) (string, error) {
	b, w := newTable("App", "Graph", "Gemini", "SympG.", "SympG./Gemini")
	for _, a := range Algos {
		for _, d := range s.Main {
			gem, sym, err := versus(m, a, d, cfg)
			if err != nil {
				return "", err
			}
			e := float64(d.graphFor(a).NumEdges())
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\n", a, d.Name,
				float64(gem.EdgesTraversed)/e, float64(sym.EdgesTraversed)/e,
				ratio(float64(sym.EdgesTraversed), float64(gem.EdgesTraversed)))
		}
	}
	w.Flush()
	return b.String(), nil
}

// Table6 renders SympleGraph's communication breakdown normalized to
// Gemini's update traffic (paper Table 6): update, dependency, and their
// sum. Control traffic (frontier/termination exchanges) is identical in
// both systems by construction and excluded from the normalization, as
// the paper's counts cover signal/slot message volume.
func Table6(s *Suite, m *Matrix, cfg Config) (string, error) {
	b, w := newTable("App", "Graph", "SymG.upt", "SymG.dep", "SymG")
	for _, a := range Algos {
		for _, d := range s.Main {
			gem, sym, err := versus(m, a, d, cfg)
			if err != nil {
				return "", err
			}
			gemTotal := float64(gem.UpdateBytes)
			upt := float64(sym.UpdateBytes) / gemTotal
			dep := float64(sym.DependencyBytes) / gemTotal
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\n", a, d.Name, upt, dep, upt+dep)
		}
	}
	w.Flush()
	return b.String(), nil
}

// nodeSweep returns v's MIS cells on d at each node count: the one sweep
// Table 7, Figure 10 and COST read.
func nodeSweep(m *Matrix, v Variant, d *Dataset, cfg Config, nodeCounts []int) ([]Measurement, error) {
	cells := make([]Measurement, len(nodeCounts))
	for i, nodes := range nodeCounts {
		ncfg := cfg
		ncfg.Nodes = nodes
		var err error
		if cells[i], err = m.Cell(v, AlgoMIS, d, ncfg); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// Table7 renders the best-performing node count for MIS (paper Table 7:
// D-Galois needed 128 Stampede2 nodes where SympleGraph needed 2–4).
func Table7(s *Suite, m *Matrix, cfg Config, nodeCounts []int) (string, error) {
	b, w := newTable("Graph", "D-Galois(s)", "SympleGraph(s)")
	for _, d := range s.Main {
		fmt.Fprintf(w, "%s", d.Name)
		for _, v := range []Variant{VariantDGalois, VariantSympleGraph} {
			cells, err := nodeSweep(m, v, d, cfg, nodeCounts)
			if err != nil {
				return "", err
			}
			best, bestNodes := math.Inf(1), 0
			for i, c := range cells {
				if c.Seconds < best {
					best, bestNodes = c.Seconds, nodeCounts[i]
				}
			}
			fmt.Fprintf(w, "\t%.4f(%d)", best, bestNodes)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String(), nil
}

// Figure10Row is one series point of the scalability figure.
type Figure10Row struct {
	Nodes   int
	Seconds map[string]float64 // system → seconds
}

// Figure10 measures MIS scalability on the s27 stand-in (paper
// Figure 10): runtime per system across cluster sizes, which the caller
// normalizes or plots.
func Figure10(s *Suite, m *Matrix, cfg Config, nodeCounts []int) ([]Figure10Row, error) {
	d := s.ByName("s27")
	rows := make([]Figure10Row, len(nodeCounts))
	for i, nodes := range nodeCounts {
		rows[i] = Figure10Row{Nodes: nodes, Seconds: map[string]float64{}}
	}
	for _, v := range comparison {
		cells, err := nodeSweep(m, v, d, cfg, nodeCounts)
		if err != nil {
			return nil, err
		}
		for i, c := range cells {
			rows[i].Seconds[v.Name] = c.Seconds
		}
	}
	return rows, nil
}

// FormatFigure10 renders the scalability series normalized to
// SympleGraph at the largest node count, as the paper's y-axis is.
func FormatFigure10(rows []Figure10Row) string {
	b, w := newTable("#nodes", "Gemini", "SympleGraph", "D-Galois")
	if len(rows) == 0 {
		w.Flush()
		return b.String()
	}
	base := rows[len(rows)-1].Seconds[VariantSympleGraph.Name]
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\n", r.Nodes,
			r.Seconds[VariantGemini.Name]/base,
			r.Seconds[VariantSympleGraph.Name]/base,
			r.Seconds["D-Galois"]/base)
	}
	w.Flush()
	return b.String()
}

// Figure11Row is one dataset's ablation: normalized geomean runtime of
// each optimization combination over the circulant-only baseline.
type Figure11Row struct {
	Dataset    string
	Normalized map[string]float64 // variant name → geomean runtime / circulant-only
}

// Figure11 measures the optimization ablation (paper Figure 11):
// circulant-only vs +DB vs +DP vs full SympleGraph, geometric mean over
// the given algorithms per dataset — all five for the paper's figure,
// sampling alone for the dependency-bound configuration, where the
// data-dependency algorithm (whose frames carry 8 bytes per vertex)
// isolates the effect the paper's Figure 11 measures.
func Figure11(s *Suite, m *Matrix, cfg Config, algos []Algo) ([]Figure11Row, error) {
	variants := []Variant{VariantCirculant, VariantDB, VariantDP, VariantSympleGraph}
	var rows []Figure11Row
	for _, d := range s.Main {
		times := map[string]float64{}
		for _, v := range variants {
			logSum, count := 0.0, 0
			for _, a := range algos {
				cell, err := m.Cell(v, a, d, cfg)
				if err != nil {
					return nil, err
				}
				if cell.Seconds > 0 {
					logSum += math.Log(cell.Seconds)
					count++
				}
			}
			times[v.Name] = math.Exp(logSum / float64(count))
		}
		row := Figure11Row{Dataset: d.Name, Normalized: map[string]float64{}}
		base := times[VariantCirculant.Name]
		for name, t := range times {
			row.Normalized[name] = t / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure11 renders the ablation rows.
func FormatFigure11(rows []Figure11Row) string {
	b, w := newTable("Graph", "Circulant", "+DB", "+DP", "SympleGraph(DB+DP)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", r.Dataset,
			r.Normalized[VariantCirculant.Name],
			r.Normalized[VariantDB.Name],
			r.Normalized[VariantDP.Name],
			r.Normalized[VariantSympleGraph.Name])
	}
	w.Flush()
	return b.String()
}

// COST reports the single-thread baseline time against the distributed
// system across node counts (paper §7.4). In this simulated setting the
// "cores" axis is simulated machines; the shape of interest is how small
// the cluster can be while beating one thread. Both sides keep the best
// of cfg.Repeats.
func COST(s *Suite, m *Matrix, cfg Config, nodeCounts []int) (string, error) {
	d := s.ByName("s27")
	b, w := newTable("System", "Nodes", "MIS time(s)")
	seqCell, err := m.Cell(VariantSequential, AlgoMIS, d, cfg)
	if err != nil {
		return "", err
	}
	sym, err := nodeSweep(m, VariantSympleGraph, d, cfg, nodeCounts)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "single-thread (Galois-style greedy)\t1\t%.4f\n", seqCell.Seconds)
	for i, nodes := range nodeCounts {
		fmt.Fprintf(w, "SympleGraph\t%d\t%.4f\n", nodes, sym[i].Seconds)
	}
	w.Flush()
	return b.String(), nil
}

// ratio returns a/b guarding division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
