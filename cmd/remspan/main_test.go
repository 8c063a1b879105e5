package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMakeGraphGenerators(t *testing.T) {
	cases := []struct {
		kind string
		n    int
	}{
		{"udg", 100}, {"ubg", 80}, {"er", 60}, {"grid", 49}, {"ring", 12}, {"hypercube", 16},
	}
	for _, c := range cases {
		g, err := makeGraph("", c.kind, c.n, 3, 2, 0.1, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", c.kind)
		}
	}
	if _, err := makeGraph("", "nope", 10, 1, 1, 0.1, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestMakeGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("3 2\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := makeGraph(path, "", 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if _, err := makeGraph(filepath.Join(dir, "missing.txt"), "", 0, 0, 0, 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunCentralizedAlgorithms(t *testing.T) {
	g, _ := makeGraph("", "udg", 120, 3, 2, 0, 2)
	for _, algo := range []string{"exact", "kconn", "2conn", "lowstretch"} {
		s, err := runCentralized(g, algo, 2, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if s.Edges() == 0 && g.M() > 0 && algo != "exact" {
			t.Fatalf("%s produced empty spanner", algo)
		}
	}
	if _, err := runCentralized(g, "nope", 2, 0.5); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, k := range []int{0, -1} {
		if _, err := runCentralized(g, "kconn", k, 0.5); err == nil || !strings.Contains(err.Error(), "k >= 1") {
			t.Fatalf("kconn k=%d: got %v, want a k >= 1 error", k, err)
		}
		if _, err := runDistributed(g, "kconn", k, 0.5); err == nil || !strings.Contains(err.Error(), "k >= 1") {
			t.Fatalf("distributed kconn k=%d: got %v, want a k >= 1 error", k, err)
		}
	}
	want, _ := runCentralized(g, "kconn", 2, 0.5)
	if got, err := runDistributed(g, "kconn", 2, 0.5); err != nil || got.Edges() != want.Edges() {
		t.Fatalf("distributed kconn k=2: err %v, want the centralized build's %d edges", err, want.Edges())
	}
}

func TestWriteDOTAndEdgeList(t *testing.T) {
	g, _ := makeGraph("", "ring", 8, 0, 0, 0, 1)
	s, err := runCentralized(g, "exact", 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dotPath := filepath.Join(dir, "out.dot")
	if err := writeDOT(dotPath, g, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph") {
		t.Fatal("DOT output malformed")
	}
	elPath := filepath.Join(dir, "h.txt")
	f, err := os.Create(elPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEdgeList(f, s.H); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := makeGraph(elPath, "", 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != s.Edges() {
		t.Fatalf("round trip lost edges: %d vs %d", back.M(), s.Edges())
	}
}
