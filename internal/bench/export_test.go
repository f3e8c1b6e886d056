package bench

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func smallCells() []Measurement {
	return []Measurement{
		{System: "D-Galois", Algo: AlgoSampling, Dataset: "tw"},
		{System: "SympleGraph", Algo: AlgoBFS, Dataset: "tw", Seconds: 1.0, EdgesTraversed: 5, UpdateBytes: 60, DependencyBytes: 7, DependencyWaitSeconds: 0.25, Supported: true},
		{System: "Gemini", Algo: AlgoBFS, Dataset: "tw", Seconds: 1.5, EdgesTraversed: 10, UpdateBytes: 100, Supported: true},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, smallCells()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 cells
		t.Fatalf("%d records", len(records))
	}
	if records[0][0] != "system" || len(records[0]) != 11 {
		t.Fatalf("header %v", records[0])
	}
	// Sorted: BFS before Sampling; Gemini before SympleGraph.
	if records[1][0] != "Gemini" || records[2][0] != "SympleGraph" || records[3][0] != "D-Galois" {
		t.Fatalf("order wrong: %v", records)
	}
	if records[2][6] != "7" {
		t.Fatalf("dependency bytes column: %v", records[2])
	}
	if records[2][8] != "0.250000" {
		t.Fatalf("dependency wait column: %v", records[2])
	}
	if records[3][10] != "false" {
		t.Fatalf("supported column: %v", records[3])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, smallCells()); err != nil {
		t.Fatal(err)
	}
	var cells []Measurement
	if err := json.Unmarshal(buf.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d cells", len(cells))
	}
	if cells[1].System != "SympleGraph" || cells[1].DependencyBytes != 7 {
		t.Fatalf("got %+v", cells[1])
	}
	if !strings.Contains(buf.String(), "\"Algo\": \"BFS\"") {
		t.Fatalf("json:\n%s", buf.String())
	}
}
