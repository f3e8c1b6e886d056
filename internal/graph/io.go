package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeListText writes g as whitespace-separated "src dst" lines
// ("src dst weight" for weighted graphs), the interchange format used by
// SNAP datasets and by Gemini's input tooling.
func WriteEdgeListText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		var err error
		if g.Weighted() {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeListText parses the format written by WriteEdgeListText. Lines
// starting with '#' or '%' are comments. The vertex count is one more than
// the largest ID seen unless a "# vertices N" header is present. Weighted
// is inferred from the first data line's field count.
func ReadEdgeListText(r io.Reader, opts BuildOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	declaredN := -1
	maxID := VertexID(0)
	sawEdge := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' || line[0] == '%' {
			var n, m int
			if _, err := fmt.Sscanf(line, "# vertices %d edges %d", &n, &m); err == nil {
				declaredN = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target: %v", lineNo, err)
		}
		w := float32(1)
		if len(fields) == 3 {
			f, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
			w = float32(f)
			opts.Weighted = true
		}
		e := Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: w}
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
		sawEdge = true
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := declaredN
	if n < 0 {
		n = 0
		if sawEdge {
			n = int(maxID) + 1
		}
	}
	return fromEdges(n, edges, true, opts)
}

const binaryMagic = "SGG1"

// WriteBinary writes g in the compact binary format: a 4-byte magic,
// little-endian header (n, m, weighted flag), then (src, dst[, weight])
// records. The binary format round-trips graphs byte-exactly and loads an
// order of magnitude faster than text.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var hdr [17]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.NumEdges()))
	if g.Weighted() {
		hdr[16] = 1
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [12]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.Dst))
		sz := 8
		if g.Weighted() {
			binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(e.Weight))
			sz = 12
		}
		if _, err := bw.Write(rec[:sz]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in either format: WriteBinary's when the input
// starts with its magic, WriteEdgeListText's otherwise.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(binaryMagic)); string(magic) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadEdgeListText(br, BuildOptions{})
}

// ReadBinary parses the format written by WriteBinary and validates the
// result.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var hdr [17]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n := int(binary.LittleEndian.Uint64(hdr[0:]))
	m := int64(binary.LittleEndian.Uint64(hdr[8:]))
	weighted := hdr[16] == 1
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: corrupt header n=%d m=%d", n, m)
	}
	recSize := 8
	if weighted {
		recSize = 12
	}
	// Preallocate conservatively: a corrupt header must not allocate
	// unbounded memory before the records fail to materialize.
	capHint := m
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	edges := make([]Edge, 0, capHint)
	rec := make([]byte, recSize)
	for i := int64(0); i < m; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		e := Edge{
			Src:    VertexID(binary.LittleEndian.Uint32(rec[0:])),
			Dst:    VertexID(binary.LittleEndian.Uint32(rec[4:])),
			Weight: 1,
		}
		if weighted {
			e.Weight = math.Float32frombits(binary.LittleEndian.Uint32(rec[8:]))
		}
		edges = append(edges, e)
	}
	g, err := fromEdges(n, edges, true, BuildOptions{Weighted: weighted})
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
