package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteCSV exports cells as CSV — system, algorithm, dataset, seconds,
// edges traversed, update/dependency/control bytes, dependency/update
// wait seconds, supported — sorted by (algo, dataset, system) so exports
// diff cleanly.
func WriteCSV(w io.Writer, cells []Measurement) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"system", "algo", "dataset", "seconds",
		"edges_traversed", "update_bytes", "dependency_bytes", "control_bytes",
		"dependency_wait_seconds", "update_wait_seconds", "supported",
	}); err != nil {
		return err
	}
	for _, c := range sorted(cells) {
		rec := []string{
			c.System, string(c.Algo), c.Dataset,
			fmt.Sprintf("%.6f", c.Seconds),
			fmt.Sprint(c.EdgesTraversed),
			fmt.Sprint(c.UpdateBytes),
			fmt.Sprint(c.DependencyBytes),
			fmt.Sprint(c.ControlBytes),
			fmt.Sprintf("%.6f", c.DependencyWaitSeconds),
			fmt.Sprintf("%.6f", c.UpdateWaitSeconds),
			fmt.Sprint(c.Supported),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports the sorted cells as a JSON array.
func WriteJSON(w io.Writer, cells []Measurement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted(cells))
}

// sorted returns a copy of cells in (algo, dataset, system) order.
func sorted(cells []Measurement) []Measurement {
	cells = append([]Measurement(nil), cells...)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Algo != cells[j].Algo {
			return cells[i].Algo < cells[j].Algo
		}
		if cells[i].Dataset != cells[j].Dataset {
			return cells[i].Dataset < cells[j].Dataset
		}
		return cells[i].System < cells[j].System
	})
	return cells
}
