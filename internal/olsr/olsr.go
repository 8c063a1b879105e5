// Package olsr is a time-domain simulation of an OLSR-style proactive
// link-state protocol whose advertised sub-graph is the paper's
// (1,0)-remote-spanner: nodes exchange periodic HELLOs (neighbor + MPR
// information), select multipoint relays with Algorithm 4, and flood
// periodic TC (topology control) messages carrying their MPR-selector
// links through the relay overlay. Every node then routes over its
// augmented view H_u = advertised links ∪ its own links.
//
// This realizes the paper's §2.3 remark that RemSpan runs inside a
// periodic, asynchronous link-state protocol and stabilizes within one
// period plus two floodings after a topology change — the package
// measures exactly that, under node mobility or link failures.
package olsr

import (
	"sort"

	"remspan/internal/domtree"
	"remspan/internal/graph"
)

// Params are protocol timing constants, in ticks. A HELLO is sent every
// HelloInterval ticks, a TC flood every TCInterval; learned state
// expires after HoldTicks without refresh.
type Params struct {
	HelloInterval int
	TCInterval    int
	HoldTicks     int
	K             int // MPR coverage (1 = RFC 3626, >1 = k-coverage extension)
}

// DefaultParams mirrors the usual OLSR ratios (hello:TC:hold ≈ 1:2:6).
func DefaultParams() Params {
	return Params{HelloInterval: 1, TCInterval: 2, HoldTicks: 8, K: 1}
}

// Stats accumulates control-plane traffic.
type Stats struct {
	HelloTx int64 // HELLO transmissions (local broadcasts)
	TCTx    int64 // TC transmissions (originations + relay forwards)
	Words   int64 // total payload words
}

// link is an advertised (origin, selector) pair with freshness.
type link struct {
	seq     int32
	expires int64
}

// node is the per-router protocol state.
type node struct {
	id int32

	nbrs     map[int32]int64          // neighbor → expiry tick (from HELLOs)
	nbrLists map[int32][]int32        // neighbor → its advertised neighbor list
	mprs     map[int32]bool           // relays this node selected
	selector map[int32]int64          // neighbors that selected this node → expiry
	topo     map[int32]map[int32]link // origin → selector → advertisement
	tcSeq    int32                    // own TC sequence counter
	seen     map[int32]int32          // origin → highest TC seq processed
	pending  []tcMsg                  // TCs to forward next tick
}

type tcMsg struct {
	origin    int32
	seq       int32
	selectors []int32
}

// tcDelivery is a TC frame on the wire, tagged with its last-hop sender
// (the MPR forwarding rule depends on who handed us the frame).
type tcDelivery struct {
	from int32
	msg  tcMsg
}

type helloMsg struct {
	from int32
	nbrs []int32
	mprs []int32
}

// Sim is the synchronous protocol simulation. The physical topology can
// be swapped at any tick (mobility); the protocol notices through its
// own HELLO/TC machinery, never by inspection.
type Sim struct {
	P     Params
	g     *graph.Graph
	nodes []*node
	tick  int64
	stats Stats

	// Double-buffered delivery queues: the rows being delivered this
	// tick and the rows being filled for the next one swap each Tick,
	// so a long-running simulation reuses row capacity instead of
	// allocating 2n slice headers per tick.
	helloBuf, helloNext [][]helloMsg
	tcBuf, tcNext       [][]tcDelivery

	// Reusable traversal state for RouteCheck's per-hop view BFS
	// (lazily created; the graph.View migration of the routing data
	// paths).
	routeScratch *graph.BFSScratch

	// Relay-selection scratch shared by every node: Tick recomputes the
	// nodes' MPRs one after another.
	mprScratch *domtree.Scratch
}

// New creates a simulation over the initial topology g.
func New(g *graph.Graph, p Params) *Sim {
	if p.HelloInterval < 1 || p.TCInterval < 1 || p.HoldTicks < p.TCInterval {
		panic("olsr: bad params")
	}
	if p.K < 1 {
		p.K = 1
	}
	s := &Sim{P: p, g: g, mprScratch: domtree.NewScratch(g.N())}
	n := g.N()
	s.nodes = make([]*node, n)
	for i := range s.nodes {
		s.nodes[i] = &node{
			id:       int32(i),
			nbrs:     make(map[int32]int64),
			nbrLists: make(map[int32][]int32),
			mprs:     make(map[int32]bool),
			selector: make(map[int32]int64),
			topo:     make(map[int32]map[int32]link),
			seen:     make(map[int32]int32),
		}
	}
	s.helloBuf = make([][]helloMsg, n)
	s.tcBuf = make([][]tcDelivery, n)
	s.helloNext = make([][]helloMsg, n)
	s.tcNext = make([][]tcDelivery, n)
	return s
}

// SetGraph swaps the physical topology (e.g. after a mobility step).
func (s *Sim) SetGraph(g *graph.Graph) {
	if g.N() != len(s.nodes) {
		panic("olsr: node count changed")
	}
	s.g = g
}

// Tick runs one synchronous protocol round: deliver last tick's
// messages, update beliefs, expire stale state, and emit this tick's
// HELLOs/TCs.
func (s *Sim) Tick() {
	n := len(s.nodes)
	// 1. Deliver queued messages (sent last tick over last tick's links;
	// delivery uses the current physical graph — links that vanished
	// in between drop the frame, as radios do).
	nextHello := s.helloNext
	nextTC := s.tcNext
	for i := range nextHello {
		nextHello[i] = nextHello[i][:0]
		nextTC[i] = nextTC[i][:0]
	}
	for u := 0; u < n; u++ {
		nd := s.nodes[u]
		for _, h := range s.helloBuf[u] {
			nd.processHello(h, s.tick+int64(s.P.HoldTicks))
		}
		for _, d := range s.tcBuf[u] {
			nd.processTC(d, s.tick+int64(s.P.HoldTicks))
		}
	}
	// 2. Expire stale beliefs and recompute MPRs.
	for _, nd := range s.nodes {
		nd.expire(s.tick)
		nd.selectMPRs(s.P.K, s.mprScratch)
	}
	// 3. Emit HELLOs.
	if s.tick%int64(s.P.HelloInterval) == 0 {
		for u := 0; u < n; u++ {
			msg := s.nodes[u].makeHello()
			s.stats.HelloTx++
			s.stats.Words += int64(2 + len(msg.nbrs) + len(msg.mprs))
			for _, v := range s.g.Neighbors(u) {
				nextHello[v] = append(nextHello[v], msg)
			}
		}
	}
	// 4. Emit TCs (origination on schedule + pending forwards).
	for u := 0; u < n; u++ {
		nd := s.nodes[u]
		var out []tcMsg
		if s.tick%int64(s.P.TCInterval) == 0 && len(nd.selector) > 0 {
			nd.tcSeq++
			out = append(out, tcMsg{origin: nd.id, seq: nd.tcSeq, selectors: nd.selectorList()})
		}
		out = append(out, nd.pending...)
		nd.pending = nil
		for _, tc := range out {
			s.stats.TCTx++
			s.stats.Words += int64(3 + len(tc.selectors))
			for _, v := range s.g.Neighbors(u) {
				nextTC[v] = append(nextTC[v], tcDelivery{from: nd.id, msg: tc})
			}
		}
	}
	s.helloBuf, s.helloNext = nextHello, s.helloBuf
	s.tcBuf, s.tcNext = nextTC, s.tcBuf
	s.tick++
}

// Run advances the simulation by ticks rounds.
func (s *Sim) Run(ticks int) {
	for i := 0; i < ticks; i++ {
		s.Tick()
	}
}

// Now returns the current tick.
func (s *Sim) Now() int64 { return s.tick }

// Stats returns cumulative traffic counters.
func (s *Sim) Stats() Stats { return s.stats }

// --- node protocol logic ---

func (nd *node) processHello(h helloMsg, expiry int64) {
	nd.nbrs[h.from] = expiry
	nd.nbrLists[h.from] = h.nbrs
	// Am I listed as one of the sender's MPRs? Then it is my selector.
	for _, m := range h.mprs {
		if m == nd.id {
			nd.selector[h.from] = expiry
			return
		}
	}
	delete(nd.selector, h.from)
}

func (nd *node) processTC(d tcDelivery, expiry int64) {
	tc := d.msg
	if tc.origin == nd.id {
		return
	}
	if last, ok := nd.seen[tc.origin]; ok && tc.seq <= last {
		return // duplicate or stale
	}
	nd.seen[tc.origin] = tc.seq
	row := make(map[int32]link, len(tc.selectors))
	for _, sel := range tc.selectors {
		row[sel] = link{seq: tc.seq, expires: expiry}
	}
	nd.topo[tc.origin] = row
	// RFC 3626 MPR forwarding rule: rebroadcast only frames first
	// received from a neighbor that selected us as its relay.
	if _, ok := nd.selector[d.from]; ok {
		nd.pending = append(nd.pending, tc)
	}
}

func (nd *node) expire(now int64) {
	for v, exp := range nd.nbrs {
		if exp <= now {
			delete(nd.nbrs, v)
			delete(nd.nbrLists, v)
			delete(nd.mprs, v)
		}
	}
	for v, exp := range nd.selector {
		if exp <= now {
			delete(nd.selector, v)
		}
	}
	for origin, row := range nd.topo {
		for sel, l := range row {
			if l.expires <= now {
				delete(row, sel)
			}
		}
		if len(row) == 0 {
			delete(nd.topo, origin)
		}
	}
}

// selectMPRs recomputes this node's relays from its believed 2-hop
// neighborhood using Algorithm 4 (greedy k-coverage) on scratch.
func (nd *node) selectMPRs(k int, scratch *domtree.Scratch) {
	// Build the believed local graph: my links + my neighbors' lists.
	ids := map[int32]bool{nd.id: true}
	for v := range nd.nbrs {
		ids[v] = true
		for _, w := range nd.nbrLists[v] {
			ids[w] = true
		}
	}
	maxID := int32(0)
	for v := range ids {
		if v > maxID {
			maxID = v
		}
	}
	local := graph.New(int(maxID) + 1)
	for v := range nd.nbrs {
		local.AddEdge(int(nd.id), int(v))
		for _, w := range nd.nbrLists[v] {
			if w != nd.id {
				local.AddEdge(int(v), int(w))
			}
		}
	}
	tree := domtree.KGreedyCSR(local, scratch, int(nd.id), k)
	nd.mprs = make(map[int32]bool)
	for _, m := range domtree.MPRSet(tree) {
		nd.mprs[m] = true
	}
}

func (nd *node) makeHello() helloMsg {
	nbrs := make([]int32, 0, len(nd.nbrs))
	for v := range nd.nbrs {
		nbrs = append(nbrs, v)
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	mprs := make([]int32, 0, len(nd.mprs))
	for v := range nd.mprs {
		mprs = append(mprs, v)
	}
	sort.Slice(mprs, func(i, j int) bool { return mprs[i] < mprs[j] })
	return helloMsg{from: nd.id, nbrs: nbrs, mprs: mprs}
}

func (nd *node) selectorList() []int32 {
	out := make([]int32, 0, len(nd.selector))
	for v := range nd.selector {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// View returns node u's current augmented view H_u: every advertised
// (origin, selector) link it has heard, plus its own believed links.
func (s *Sim) View(u int) *graph.Graph {
	nd := s.nodes[u]
	h := graph.New(len(s.nodes))
	for origin, row := range nd.topo {
		for sel := range row {
			h.AddEdge(int(origin), int(sel))
		}
	}
	for v := range nd.nbrs {
		h.AddEdge(u, int(v))
	}
	return h
}

// AdvertisedSpanner returns the union of links currently advertised by
// TC floods network-wide (ground truth across all nodes' TC state) —
// the live remote-spanner.
func (s *Sim) AdvertisedSpanner() *graph.EdgeSet {
	es := graph.NewEdgeSet(len(s.nodes))
	for _, nd := range s.nodes {
		for origin, row := range nd.topo {
			for sel := range row {
				es.Add(int(origin), int(sel))
			}
		}
		for v := range nd.selector {
			es.Add(int(nd.id), int(v))
		}
	}
	return es
}
