package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeListText checks the text parser never panics and that
// anything it accepts builds a valid graph. Seeds run as regular tests;
// `go test -fuzz=FuzzReadEdgeListText ./internal/graph` explores further.
func FuzzReadEdgeListText(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# vertices 5 edges 1\n0 4\n")
	f.Add("% comment\n\n3 3 0.5\n")
	f.Add("x y\n")
	f.Add("0 1 2 3\n")
	f.Add("4294967295 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListText(strings.NewReader(input), BuildOptions{Dedupe: true})
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v\ninput: %q", err, input)
		}
	})
}

// FuzzReadBinary checks the binary loader rejects corruption without
// panicking, and accepts what WriteBinary produces.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Ring(8)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("SGG1"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), buf.Bytes()...)
	if len(corrupt) > 10 {
		corrupt[9] = 0xff
	}
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v", err)
		}
	})
}
