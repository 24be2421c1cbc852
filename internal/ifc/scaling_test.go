package ifc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/minirust"
)

// callTreeProgram builds a binary call tree of depth n: f0 calls f1
// twice, f1 calls f2 twice, …, so a non-compositional analysis visits
// 2^n bodies while the summarized one visits n+1.
func callTreeProgram(depth int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fn f%d(x: i64) -> i64 { return x + 1; }\n", depth)
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "fn f%d(x: i64) -> i64 { return f%d(x) + f%d(x); }\n", i, i+1, i+1)
	}
	sb.WriteString("fn main() { println(f0(1)); }\n")
	return sb.String()
}

func checkedTree(t testing.TB, depth int) (*minirust.Checked, *Lattice) {
	t.Helper()
	prog, err := minirust.Parse(callTreeProgram(depth))
	if err != nil {
		t.Fatal(err)
	}
	c, err := minirust.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := minirust.BorrowCheck(c); err != nil {
		t.Fatal(err)
	}
	return c, Default()
}

func TestSummariesCollapseCallTree(t *testing.T) {
	const depth = 10
	c, lat := checkedTree(t, depth)
	with, err := analyze(c, lat, true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := analyze(c, lat, false)
	if err != nil {
		t.Fatal(err)
	}
	// Verdicts agree (both clean).
	if !with.OK() || !without.OK() {
		t.Fatalf("verdicts: with=%v without=%v", with.Violations, without.Violations)
	}
	// With summaries: each fi analyzed once => misses = depth+1 (+main);
	// hits = one per duplicate call site.
	if with.SummaryMisses > depth+2 {
		t.Fatalf("with summaries: %d misses, want <= %d", with.SummaryMisses, depth+2)
	}
	if with.SummaryHits != depth {
		t.Fatalf("with summaries: %d hits, want %d", with.SummaryHits, depth)
	}
	// Without: exponential body visits (2^depth leaf analyses alone).
	if without.SummaryMisses < 1<<depth {
		t.Fatalf("without summaries: %d misses, want >= %d", without.SummaryMisses, 1<<depth)
	}
}

func TestNoSummariesSameVerdictOnPaperPrograms(t *testing.T) {
	// The ablation must not change verdicts, only cost.
	for _, src := range []string{
		minirust.PaperBufferProgram(true, false),
		minirust.PaperBufferProgram(false, false),
	} {
		c, lat := checkSrc(t, src)
		with, err := analyze(c, lat, true)
		if err != nil {
			t.Fatal(err)
		}
		without, err := analyze(c, lat, false)
		if err != nil {
			t.Fatal(err)
		}
		if with.OK() != without.OK() || len(with.Violations) != len(without.Violations) {
			t.Fatalf("verdicts diverge: with=%v without=%v", with.Violations, without.Violations)
		}
	}
}

// BenchmarkAblationIFCSummaries measures the §4 compositional-reasoning
// payoff on the binary call tree.
func BenchmarkAblationIFCSummaries(b *testing.B) {
	const depth = 12
	c, lat := checkedTree(b, depth)
	b.Run("with-summaries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analyze(c, lat, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-summaries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analyze(c, lat, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
