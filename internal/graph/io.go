package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteEdgeList writes g in a simple text format:
//
//	n m
//	u v        (one line per edge, u < v)
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	var err error
	g.EachEdge(func(u, v int) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscanf(br, "%d %d\n", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative header values %d %d", n, m)
	}
	g := New(n)
	for i := 0; i < m; i++ {
		var u, v int
		if _, err := fmt.Fscanf(br, "%d %d\n", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %d: %w", i, err)
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range", u, v)
		}
		g.AddEdge(u, v)
	}
	return g, nil
}

// DOT renders g in Graphviz format. highlight (may be nil) selects
// the edges of g to draw bold/colored — used to overlay a spanner on
// its graph.
func DOT(g *Graph, name string, highlight *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n  node [shape=circle];\n", name)
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "  %d;\n", v)
	}
	g.EachEdge(func(u, v int) {
		if highlight != nil && highlight.HasEdge(u, v) {
			fmt.Fprintf(&b, "  %d -- %d [color=red, penwidth=2];\n", u, v)
		} else {
			fmt.Fprintf(&b, "  %d -- %d [color=gray];\n", u, v)
		}
	})
	b.WriteString("}\n")
	return b.String()
}
