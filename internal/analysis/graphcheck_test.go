package analysis

import (
	"bytes"
	"strings"
	"testing"
)

// chainGraph builds env -> a -> b -> env with the given rates.
func chainGraph(prodA, consB int) *Graph {
	g := NewGraph("chain")
	a := g.AddActor("a", "filter", "m")
	b := g.AddActor("b", "filter", "m")
	env := g.AddActor("environment", "env", "")
	feed := env.AddOut("feed_in", "U32", RateUnknown)
	ain := a.AddIn("in", "U32", 1)
	aout := a.AddOut("out", "U32", prodA)
	bin := b.AddIn("in", "U32", consB)
	bout := b.AddOut("out", "U32", 1)
	drain := env.AddIn("drain_out", "U32", RateUnknown)
	g.Connect(feed, ain, "dma")
	g.Connect(aout, bin, "data")
	g.Connect(bout, drain, "dma")
	return g
}

func codes(r *Report) []string {
	out := make([]string, len(r.Diags))
	for i, d := range r.Diags {
		out[i] = d.Code
	}
	return out
}

func hasCode(r *Report, code string) bool {
	for _, d := range r.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestBalancedChainIsClean(t *testing.T) {
	r := CheckGraph(chainGraph(1, 1))
	if len(r.Diags) != 0 {
		t.Fatalf("expected clean graph, got %v", codes(r))
	}
}

func TestDF001Dangling(t *testing.T) {
	g := chainGraph(1, 1)
	// Add an unbound, non-external input to b.
	g.Actors[1].AddIn("side", "U32", 1)
	r := CheckGraph(g)
	if !hasCode(r, "DF001") || !r.HasErrors() {
		t.Fatalf("expected DF001 error, got %v", codes(r))
	}
	// External ports are exempt.
	g2 := chainGraph(1, 1)
	p := g2.Actors[1].AddIn("side", "U32", 1)
	p.External = true
	if r2 := CheckGraph(g2); len(r2.Diags) != 0 {
		t.Fatalf("external dangling port should be exempt, got %v", codes(r2))
	}
}

func TestDF002RateMismatch(t *testing.T) {
	r := CheckGraph(chainGraph(2, 1))
	if !hasCode(r, "DF002") || !r.HasErrors() {
		t.Fatalf("expected DF002 error, got %v", codes(r))
	}
	// Unknown rates must not be flagged.
	g := chainGraph(RateUnknown, 1)
	if r := CheckGraph(g); hasCode(r, "DF002") {
		t.Fatalf("unknown rate flagged: %v", codes(r))
	}
}

func TestDF004NeverReads(t *testing.T) {
	r := CheckGraph(chainGraph(1, 0))
	if !hasCode(r, "DF004") {
		t.Fatalf("expected DF004, got %v", codes(r))
	}
}

func TestDF007NeverWrites(t *testing.T) {
	r := CheckGraph(chainGraph(0, 1))
	if !hasCode(r, "DF007") {
		t.Fatalf("expected DF007, got %v", codes(r))
	}
	// Buffered initial tokens suppress the warning.
	g := chainGraph(0, 1)
	g.Links[1].InitialTokens = 1
	if r := CheckGraph(g); hasCode(r, "DF007") {
		t.Fatalf("initial tokens should suppress DF007: %v", codes(r))
	}
}

func TestDF006StrandedFeed(t *testing.T) {
	g := NewGraph("feed")
	env := g.AddActor("environment", "env", "")
	sum := g.AddActor("sum", "filter", "m")
	feed := env.AddOut("feed_i", "U32", RateUnknown)
	in := sum.AddIn("i", "U32", 2)
	l := g.Connect(feed, in, "dma")
	l.FeedTokens = 3
	r := CheckGraph(g)
	if !hasCode(r, "DF006") {
		t.Fatalf("expected DF006, got %v", codes(r))
	}
	l.FeedTokens = 4
	if r := CheckGraph(g); hasCode(r, "DF006") {
		t.Fatalf("4%%2==0 should be clean, got %v", codes(r))
	}
}

func TestDF003CycleDeadlock(t *testing.T) {
	g := NewGraph("loop")
	a := g.AddActor("a", "filter", "m")
	b := g.AddActor("b", "filter", "m")
	ao := a.AddOut("to_b", "U32", 1)
	bi := b.AddIn("from_a", "U32", 1)
	bo := b.AddOut("to_a", "U32", 1)
	ai := a.AddIn("from_b", "U32", 1)
	g.Connect(ao, bi, "data")
	back := g.Connect(bo, ai, "data")
	r := CheckGraph(g)
	if !hasCode(r, "DF003") || !r.HasErrors() {
		t.Fatalf("expected DF003 error, got %v", codes(r))
	}
	var d *Diagnostic
	for i := range r.Diags {
		if r.Diags[i].Code == "DF003" {
			d = &r.Diags[i]
		}
	}
	if !strings.Contains(d.Detail, "digraph") || !strings.Contains(d.Detail, "\"a\" -> \"b\"") {
		t.Fatalf("DF003 detail should carry a DOT rendering, got %q", d.Detail)
	}
	// Priming one link with enough initial tokens unblocks the cycle.
	back.InitialTokens = 1
	if r := CheckGraph(g); hasCode(r, "DF003") {
		t.Fatalf("primed cycle still flagged: %v", codes(r))
	}
}

func TestDF005ArityGolden(t *testing.T) {
	g := NewGraph("arity")
	src := g.AddActor("src", "filter", "m")
	split := g.AddActor("split", "filter", "m")
	split.Behavior = "splitter"
	join := g.AddActor("join", "filter", "m")
	join.Behavior = "joiner"
	mapper := g.AddActor("mapper", "filter", "m")
	mapper.Behavior = "map"

	so := src.AddOut("o", "U32", 1)
	si := split.AddIn("i", "U32", 1)
	g.Connect(so, si, "data")
	// splitter with a single output
	spo := split.AddOut("o", "U32", 1)
	ji := join.AddIn("i", "U32", 1)
	g.Connect(spo, ji, "data")
	// joiner with a single input
	jo := join.AddOut("o", "U32", 1)
	mi := mapper.AddIn("i", "U32", 1)
	g.Connect(jo, mi, "data")
	// map with one input and zero outputs
	r := CheckGraph(g)

	n := 0
	for _, d := range r.Diags {
		if d.Code == "DF005" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("expected 3 DF005 warnings, got %v", codes(r))
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	compareGolden(t, "../../testdata/analysis/graphs/df005.golden", buf.Bytes())
}

// TestGraphGoldens pins the full rendered report for one representative
// graph per DF code (DF005 has its own golden above).
func TestGraphGoldens(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"df001_dangling", func() *Graph {
			g := chainGraph(1, 1)
			g.Actors[1].AddIn("side", "U32", 1)
			return g
		}},
		{"df002_rate_mismatch", func() *Graph { return chainGraph(2, 1) }},
		{"df003_cycle", func() *Graph {
			g := NewGraph("loop")
			a := g.AddActor("acc", "filter", "m")
			b := g.AddActor("inc", "filter", "m")
			ao := a.AddOut("sum_out", "U32", 1)
			bi := b.AddIn("val_in", "U32", 1)
			bo := b.AddOut("next_out", "U32", 1)
			ai := a.AddIn("loop_in", "U32", 1)
			g.Connect(ao, bi, "data")
			g.Connect(bo, ai, "data")
			return g
		}},
		{"df004_growth", func() *Graph { return chainGraph(1, 0) }},
		{"df006_stranded_feed", func() *Graph {
			g := NewGraph("feed")
			env := g.AddActor("environment", "env", "")
			sum := g.AddActor("sum", "filter", "m")
			feed := env.AddOut("feed_i", "U32", RateUnknown)
			in := sum.AddIn("i", "U32", 2)
			l := g.Connect(feed, in, "dma")
			l.FeedTokens = 3
			return g
		}},
		{"df007_never_fires", func() *Graph { return chainGraph(0, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			CheckGraph(tc.build()).WriteText(&buf)
			compareGolden(t, "../../testdata/analysis/graphs/"+tc.name+".golden", buf.Bytes())
		})
	}
}

func TestCycleEnumerationIsBounded(t *testing.T) {
	// A dense graph with a huge number of elementary cycles must not
	// blow up: enumeration stops at maxCycles.
	g := NewGraph("dense")
	const n = 10
	actors := make([]*ActorNode, n)
	for i := range actors {
		actors[i] = g.AddActor(strings.Repeat("x", i+1), "filter", "m")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			o := actors[i].AddOut("o", "U32", 1)
			in := actors[j].AddIn("i", "U32", 1)
			g.Connect(o, in, "data")
		}
	}
	r := CheckGraph(g)
	cnt := 0
	for _, d := range r.Diags {
		if d.Code == "DF003" {
			cnt++
		}
	}
	if cnt == 0 || cnt > maxCycles {
		t.Fatalf("expected 1..%d DF003 findings, got %d", maxCycles, cnt)
	}
}
