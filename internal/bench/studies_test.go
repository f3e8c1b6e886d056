package bench

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestPartitionStudy(t *testing.T) {
	out, err := PartitionStudy(testSuite(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "chunked-out") || !strings.Contains(out, "hashed-in") {
		t.Fatalf("output:\n%s", out)
	}
	if strings.Count(out, "\n") < 6 {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestDirectionStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs BFS sweeps")
	}
	out, err := DirectionStudy(testSuite(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adaptive", "top-down", "bottom-up", "tw", "cl"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Top-down rows must show ratio 1.000: push mode has no dependency.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "top-down") && !strings.Contains(line, "1.000") {
			t.Fatalf("top-down ratio not 1.0: %s", line)
		}
	}
}

// TestDirectionStudyTraced checks that the study's clusters take the
// config's options: a capturing tracer in cfg records their spans.
func TestDirectionStudyTraced(t *testing.T) {
	tr := obs.NewCapturingTracer(0)
	cfg := testConfig()
	cfg.Tracer = tr
	if _, err := DirectionStudy(NewSuite(7), cfg); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("the direction study recorded no engine spans")
	}
}

func TestChunkByInDegreeCovers(t *testing.T) {
	s := testSuite()
	g := s.ByName("tw").Graph()
	pt, err := chunkByInDegree(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Starts[0] != 0 || pt.Starts[5] != g.NumVertices() {
		t.Fatalf("chunks do not cover: %v", pt.Starts)
	}
	for i := 1; i <= 5; i++ {
		if pt.Starts[i] < pt.Starts[i-1] {
			t.Fatalf("non-monotone starts: %v", pt.Starts)
		}
	}
}

func TestImbalanceHelpers(t *testing.T) {
	g := testSuite().ByName("s27").Graph()
	if imb := hashedInImbalance(g, 4); imb < 1 {
		t.Fatalf("imbalance %g < 1", imb)
	}
	v, d := largestInDegree(g)
	if d <= 0 || g.InDegree(v) != d {
		t.Fatalf("largestInDegree wrong: %d %d", v, d)
	}
}
