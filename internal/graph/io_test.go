package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(15)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(15), rng.Intn(15)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != h.N() || !slices.Equal(g.Edges(), h.Edges()) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"2\n",
		"2 1\n0 5\n",
		"-1 0\n",
		"3 2\n0 1\n",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	hl := New(3)
	hl.AddEdge(0, 1)
	dot := DOT(g, "test", hl)
	if !strings.Contains(dot, "0 -- 1 [color=red") {
		t.Error("highlighted edge not red")
	}
	if !strings.Contains(dot, "1 -- 2 [color=gray") {
		t.Error("plain edge not gray")
	}
	if !strings.Contains(dot, `graph "test"`) {
		t.Error("missing graph name")
	}
	// nil highlight must not crash
	_ = DOT(g, "plain", nil)
}
