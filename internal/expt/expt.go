// Package expt contains one driver per reproduced table, figure and
// quantitative claim of the paper (see DESIGN.md §4 for the index).
// Every experiment returns a stats.Table whose rows mirror what the
// paper reports, plus PASS/FAIL verdicts for the properties it claims.
//
// The exhaustive stretch verdicts (spanner.Check) and observed-stretch
// profiles (spanner.MeasureProfile) the drivers report run on the
// word-parallel 64-source verification engine of DESIGN.md §3c at
// every size; its results are bit-identical to a serial scalar sweep
// (FuzzVerifyEquivalence in internal/spanner), so the reproduced
// numbers do not depend on the engine.
package expt

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"remspan/internal/geom"
	"remspan/internal/graph"
	"remspan/internal/stats"
)

// Config selects experiment scale and reproducibility seed.
type Config struct {
	Quick bool  // reduced sizes for CI; full sizes for paper-scale runs
	Seed  int64 // base RNG seed; every experiment derives from it
}

// rng returns a fresh deterministic generator for an experiment,
// decorrelated across experiment ids.
func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1000003 + salt))
}

// Experiment couples an id (E1..E16) with its driver.
type Experiment struct {
	ID    string
	Title string
	Ref   string // what it reproduces in the paper
	Run   func(cfg Config) (*stats.Table, error)
}

// All returns every experiment in id order.
func All() []Experiment {
	list := []Experiment{
		{"E1", "Figure 1 worked example", "Figure 1 (a)-(d)", Figure1},
		{"E2", "Table 1: spanner families compared", "Table 1", Table1},
		{"E3", "(1,0)-remote-spanner scaling in random UDG", "Th. 2, §3.2", ScalingUDG},
		{"E4", "Low-stretch size in doubling UBG", "Th. 1, Prop. 3", EpsilonSweep},
		{"E5", "k-connecting size vs k", "Th. 2", KConnSweep},
		{"E6", "Greedy vs optimal dominating trees", "Prop. 2, Prop. 6, Th. 2", ApproxRatio},
		{"E7", "Distributed rounds and traffic", "Alg. 3, Table 1 time column", Rounds},
		{"E8", "Greedy link-state routing stretch", "§1 motivation", RoutingStretch},
		{"E9", "Multipath fault tolerance", "§3 motivation, Th. 3", Multipath},
		{"E10", "MPR flooding economy", "§1.2 multipoint relays", Flooding},
		{"E11", "Remote-spanners vs classical spanners", "§1.2, Table 1", Frontier},
		{"E12", "Edge-connecting extension", "§4 concluding remarks", EdgeConnecting},
		{"E13", "Live protocol stabilization", "§2.3 asynchronous operation remark", LiveProtocol},
		{"E14", "Incremental maintenance under churn", "§2.3 (locality of node decisions)", Churn},
		{"E15", "Worst-case frontier on C4-free graphs", "§1.2 tightness conjecture", WorstCase},
		{"E16", "Asynchronous execution invariance", "§1 (no synchronization needed)", Asynchrony},
		{"E17", "Live-network incremental re-advertisement", "§2.3 live operation, Alg. 3 locality", LiveNetwork},
	}
	sort.Slice(list, func(i, j int) bool { return idOrder(list[i].ID) < idOrder(list[j].ID) })
	return list
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, writing each table to w; it keeps
// going on individual failures and returns the first error.
func RunAll(cfg Config, w io.Writer) error {
	var firstErr error
	for _, e := range All() {
		fmt.Fprintf(w, "\n[%s] %s — reproduces %s\n", e.ID, e.Title, e.Ref)
		t, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, err)
			}
			continue
		}
		t.Fprint(w)
	}
	return firstErr
}

// --- shared workload builders ---

// poissonUDG samples the paper's random-UDG model: a Poisson point
// process of the given intensity on a fixed side×side square with unit
// connection radius, restricted to the largest connected component.
func poissonUDG(lambda, side float64, rng *rand.Rand) *graph.Graph {
	pts := geom.PoissonSquare(lambda, side, rng)
	g := geom.UnitDiskGraph(pts, 1.0)
	keep, _ := graph.LargestComponent(g)
	return g.InducedSubgraph(keep)
}

// udgWithN returns a UDG with approximately n nodes in the fixed square.
func udgWithN(n int, side float64, rng *rand.Rand) *graph.Graph {
	return poissonUDG(float64(n)/(side*side), side, rng)
}

// ubgPoints returns the unit-ball graph of n uniform points in
// [0, side]^dim together with its metric (dim controls the doubling
// dimension of the underlying metric). The graph is kept aligned with
// the metric (no component filtering); verification skips unreachable
// pairs.
func ubgPoints(n, dim int, side float64, rng *rand.Rand) (*graph.Graph, geom.EuclideanMetric) {
	pts := geom.UniformBox(n, dim, side, rng)
	m := geom.EuclideanMetric{Points: pts}
	return geom.UnitBallGraph(m, 1.0), m
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
