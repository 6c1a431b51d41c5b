package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tieGraph builds a random graph whose transmissivities come from a tiny
// set, so −log η costs collide constantly and equal-cost predecessor
// choices (the hard part of scratch/baseline equivalence) are exercised on
// nearly every source.
func tieGraph(t *testing.T, rng *rand.Rand, n int, p float64) *Graph {
	t.Helper()
	g := NewGraph()
	buildComponentTieGraph(t, rng, g, n, 1, p)
	return g
}

func nodeName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

// TestDijkstraScratchMatchesBaseline pins the scratch replica against the
// map-packed heap baseline: bit-identical distances AND predecessors, on
// tie-heavy graphs, from every source, under all three cost functions the
// Adjacency is loaded with — −log η (disjoint extraction), 1/(η+ε)
// (serving) and hop count (the ablation's tie-richest metric). Run to
// completion it must match everywhere; stopped at a destination it must
// match at that destination and along its predecessor chain.
func TestDijkstraScratchMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch DijkstraScratch
	var adj Adjacency
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(24)
		g := tieGraph(t, rng, n, 0.3)
		for _, arm := range costArms {
			adj.Load(g, arm.cost)
			for si := 0; si < n; si++ {
				src := nodeName(si)
				want, err := Dijkstra(g, src, arm.cost)
				if err != nil {
					t.Fatalf("Dijkstra: %v", err)
				}
				scratch.run(&adj, si, -1, nil, -1, -1)
				label := fmt.Sprintf("trial %d cost %s src %s", trial, arm.name, src)
				for i := range g.ids {
					requireScratchNode(t, g, &scratch, want, i, label)
				}
				for di := 0; di < n; di++ {
					scratch.run(&adj, si, di, nil, -1, -1)
					label := fmt.Sprintf("trial %d cost %s src %s stopped at %s", trial, arm.name, src, nodeName(di))
					for cur := di; cur >= 0; cur = scratch.prev[cur] {
						requireScratchNode(t, g, &scratch, want, cur, label)
					}
				}
			}
		}
	}
}

// costArms are the edge costs the kernels run under in production.
var costArms = []struct {
	name string
	cost CostFunc
}{
	{"neglog", NegLogEtaCost(0)},
	{"inverse", InverseEtaCost(0)},
	{"hops", HopCountCost()},
}

// requireScratchNode fails unless the scratch's distance and predecessor of
// dense node i equal the baseline's bit for bit.
func requireScratchNode(t *testing.T, g *Graph, s *DijkstraScratch, want *SingleSourceResult, i int, label string) {
	t.Helper()
	id := g.ids[i]
	if s.dist[i] != want.Dist[id] && !(math.IsInf(s.dist[i], 1) && math.IsInf(want.Dist[id], 1)) {
		t.Fatalf("%s: dist[%s] = %v, baseline %v", label, id, s.dist[i], want.Dist[id])
	}
	var gotPrev string
	if p := s.prev[i]; p >= 0 {
		gotPrev = g.ids[p]
	}
	if gotPrev != want.Prev[id] {
		t.Fatalf("%s: prev[%s] = %q, baseline %q", label, id, gotPrev, want.Prev[id])
	}
}

// refDisjointPaths is the clone-and-delete reference for DisjointScratch:
// delete every incident edge of a consumed path's interior vertices (and
// the direct src–dst edge when the path is a single hop), then re-run the
// baseline Dijkstra. The oracletest protocol reference uses this same
// procedure verbatim.
func refDisjointPaths(t *testing.T, g *Graph, primary []string, k int) [][]string {
	t.Helper()
	work := g.Clone()
	src, dst := primary[0], primary[len(primary)-1]
	consume := func(path []string) {
		for i := 1; i+1 < len(path); i++ {
			for _, nb := range work.Neighbors(path[i]) {
				work.RemoveEdge(path[i], nb)
			}
		}
		if len(path) == 2 {
			work.RemoveEdge(src, dst)
		}
	}
	paths := [][]string{primary}
	consume(primary)
	for len(paths) < k {
		res, err := Dijkstra(work, src, NegLogEtaCost(0))
		if err != nil {
			t.Fatalf("reference Dijkstra: %v", err)
		}
		path, err := res.PathTo(dst)
		if err != nil {
			break // unreachable in the residual graph: done
		}
		paths = append(paths, path)
		consume(path)
	}
	return paths
}

// TestDisjointScratchMatchesReference pins blocked-flag extraction against
// clone-and-delete extraction across random graphs, endpoints and budgets.
func TestDisjointScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ds DisjointScratch
	checked := 0
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(20)
		g := tieGraph(t, rng, n, 0.35)
		for pair := 0; pair < 5; pair++ {
			src, dst := nodeName(rng.Intn(n)), nodeName(rng.Intn(n))
			if src == dst {
				continue
			}
			primary, _, err := BestTransmissivityPath(g, src, dst)
			if err != nil {
				continue // unreachable pair
			}
			k := 1 + rng.Intn(4)
			want := refDisjointPaths(t, g, primary, k)
			got, err := ds.Extract(g, primary, k)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s->%s k=%d: scratch %v, reference %v", trial, src, dst, k, got, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d reachable pairs exercised; generator too sparse", checked)
	}
}

// TestDisjointScratchDirectEdge pins the single-hop alternative: when the
// best disjoint alternative is the direct src–dst edge (no interior
// vertices to block), extraction must consume that edge and terminate
// rather than re-extracting it forever.
func TestDisjointScratchDirectEdge(t *testing.T) {
	g := NewGraph()
	// Primary a-m-b (η product 0.81) beats direct a-b (0.5); the direct
	// edge is the only disjoint alternative.
	for _, e := range []struct {
		a, b string
		eta  float64
	}{{"a", "m", 0.9}, {"m", "b", 0.9}, {"a", "b", 0.5}} {
		if err := g.AddEdge(e.a, e.b, e.eta); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	primary := []string{"a", "m", "b"}
	var ds DisjointScratch
	got, err := ds.Extract(g, primary, 5)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := [][]string{{"a", "m", "b"}, {"a", "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Extract = %v, want %v", got, want)
	}
}

// TestDisjointScratchReuse verifies a reused scratch gives identical
// results to a fresh one (state from earlier extractions must not leak).
func TestDisjointScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := tieGraph(t, rng, 18, 0.4)
	var reused DisjointScratch
	type query struct {
		primary []string
		k       int
	}
	var queries []query
	for i := 0; i < 12; i++ {
		src, dst := nodeName(rng.Intn(18)), nodeName(rng.Intn(18))
		if src == dst {
			continue
		}
		if p, _, err := BestTransmissivityPath(g, src, dst); err == nil {
			queries = append(queries, query{p, 1 + rng.Intn(4)})
		}
	}
	for qi, q := range queries {
		var fresh DisjointScratch
		want, err := fresh.Extract(g, q.primary, q.k)
		if err != nil {
			t.Fatalf("fresh Extract: %v", err)
		}
		got, err := reused.Extract(g, q.primary, q.k)
		if err != nil {
			t.Fatalf("reused Extract: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reused %v, fresh %v", qi, got, want)
		}
	}
}

// buildComponentTieGraph rebuilds g in place as a tie-heavy graph of n
// nodes split into comps components (node i joins component i mod comps),
// so extraction both stops at reachable destinations and exhausts the heap
// on unreachable ones. With comps = 1 it draws exactly tieGraph's graph.
func buildComponentTieGraph(t *testing.T, rng *rand.Rand, g *Graph, n, comps int, p float64) {
	t.Helper()
	etas := []float64{0.25, 0.5, 0.5, 1.0} // repeats skew toward ties
	g.Reset()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%comps == j%comps && rng.Float64() < p {
				if err := g.AddEdge(nodeName(i), nodeName(j), etas[rng.Intn(len(etas))]); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			}
		}
	}
}

// TestDisjointExtractMatchesDenseReference pins ExtractOn and Extract
// reflect.DeepEqual to the retired dense-row extraction
// (scratchpaths_ref_test.go) on tie-heavy multi-component graphs, for every
// budget k ∈ {1,2,3,4}, over best-path and direct-edge primaries. One
// Adjacency and one scratch serve every graph, and every other graph is
// rebuilt in place into the same pooled *Graph with a new size and edge
// set, so a row kept across Load — or a cache keyed on the graph pointer —
// would return stale neighbours.
func TestDisjointExtractMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var (
		adj        Adjacency
		on, whole  DisjointScratch
		ref        denseDisjointRef
		pooled     = NewGraph()
		checked    int
		directEdge int
	)
	for trial := 0; trial < 60; trial++ {
		g := pooled
		if trial%2 == 0 {
			g = NewGraph()
		}
		n := 5 + rng.Intn(40)
		buildComponentTieGraph(t, rng, g, n, 1+rng.Intn(4), 0.15+0.3*rng.Float64())
		adj.Load(g, NegLogEtaCost(0))
		dense := denseOf(g)
		var primaries [][]string
		for pair := 0; pair < 8; pair++ {
			src, dst := nodeName(rng.Intn(n)), nodeName(rng.Intn(n))
			if src == dst {
				continue
			}
			if p, _, err := BestTransmissivityPath(g, src, dst); err == nil {
				primaries = append(primaries, p)
			}
		}
		for e := 0; e < 4; e++ {
			a := nodeName(rng.Intn(n))
			if nbrs := g.Neighbors(a); len(nbrs) > 0 {
				primaries = append(primaries, []string{a, nbrs[rng.Intn(len(nbrs))]})
				directEdge++
			}
		}
		for _, primary := range primaries {
			for k := 1; k <= 4; k++ {
				want, err := ref.Extract(dense, primary, k)
				if err != nil {
					t.Fatalf("reference Extract: %v", err)
				}
				got, err := on.ExtractOn(&adj, primary, k)
				if err != nil {
					t.Fatalf("ExtractOn: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d primary %v k=%d: ExtractOn %v, dense reference %v", trial, primary, k, got, want)
				}
				got, err = whole.Extract(g, primary, k)
				if err != nil {
					t.Fatalf("Extract: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d primary %v k=%d: Extract %v, dense reference %v", trial, primary, k, got, want)
				}
				checked++
			}
		}
	}
	if checked < 1000 || directEdge < 100 {
		t.Fatalf("only %d extractions (%d direct-edge primaries) exercised; generator too sparse", checked, directEdge)
	}
}

// TestEdgeEtasIntoMatchesEdgeEtas pins the allocation-free variant against
// the allocating one, including the reuse path.
func TestEdgeEtasIntoMatchesEdgeEtas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tieGraph(t, rng, 15, 0.4)
	buf := make([]float64, 0, 8)
	for i := 0; i < 20; i++ {
		src, dst := nodeName(rng.Intn(15)), nodeName(rng.Intn(15))
		if src == dst {
			continue
		}
		path, _, err := BestTransmissivityPath(g, src, dst)
		if err != nil {
			continue
		}
		want, err := g.EdgeEtas(path)
		if err != nil {
			t.Fatalf("EdgeEtas: %v", err)
		}
		got, err := g.EdgeEtasInto(buf[:0], path)
		if err != nil {
			t.Fatalf("EdgeEtasInto: %v", err)
		}
		buf = got
		if !reflect.DeepEqual(append([]float64(nil), got...), want) {
			t.Fatalf("EdgeEtasInto = %v, EdgeEtas = %v", got, want)
		}
	}
}
