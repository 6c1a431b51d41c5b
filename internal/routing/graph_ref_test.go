package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refEdge is one EachEdge callback, recorded for sequence comparison.
type refEdge struct {
	i, j int
	eta  float64
}

func sparseEdges(g *Graph) []refEdge {
	var out []refEdge
	g.EachEdge(func(i, j int, eta float64) { out = append(out, refEdge{i, j, eta}) })
	return out
}

func denseEdges(d *denseGraph) []refEdge {
	var out []refEdge
	d.EachEdge(func(i, j int, eta float64) { out = append(out, refEdge{i, j, eta}) })
	return out
}

// requireGraphEqual fails unless the sparse graph g answers every query
// exactly as the dense reference d: node list, edge count, the EachEdge
// sequence, every Eta (absent pairs, self pairs and unknown IDs included),
// and every neighbour list. The dense graph returns an empty list for an
// isolated node it has sized its matrix for and nil for one added since;
// the sparse graph returns nil for both, so neighbour lists compare by
// content. Finally a non-empty g must be DeepEqual to a graph built fresh
// from the reference's edges, so no operation history shows in its rows.
// (An emptied graph keeps its non-nil, zero-length slices, as the dense one
// did, and so differs from a fresh one only in nil-ness.)
func requireGraphEqual(t *testing.T, g *Graph, d *denseGraph, ids []string, label string) {
	t.Helper()
	if !reflect.DeepEqual(g.Nodes(), d.Nodes()) {
		t.Fatalf("%s: Nodes() = %v, dense %v", label, g.Nodes(), d.Nodes())
	}
	if g.NumNodes() != d.NumNodes() || g.NumEdges() != d.NumEdges() {
		t.Fatalf("%s: %d nodes / %d edges, dense %d / %d", label, g.NumNodes(), g.NumEdges(), d.NumNodes(), d.NumEdges())
	}
	if got, want := sparseEdges(g), denseEdges(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: EachEdge sequence\n got %v\nwant %v", label, got, want)
	}
	for _, a := range ids {
		gi, gok := g.IndexOf(a)
		di, dok := d.IndexOf(a)
		if gi != di || gok != dok || g.HasNode(a) != d.HasNode(a) {
			t.Fatalf("%s: IndexOf(%s) = %d,%v, dense %d,%v", label, a, gi, gok, di, dok)
		}
		if got, want := g.Neighbors(a), d.Neighbors(a); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%s) = %v, dense %v", label, a, got, want)
		}
		for _, b := range ids {
			ge, gok := g.Eta(a, b)
			de, dok := d.Eta(a, b)
			if ge != de || gok != dok {
				t.Fatalf("%s: Eta(%s,%s) = %v,%v, dense %v,%v", label, a, b, ge, gok, de, dok)
			}
		}
	}
	if g.NumNodes() == 0 {
		return
	}
	fresh := NewGraph()
	for _, id := range d.Nodes() {
		fresh.AddNode(id)
	}
	d.EachEdge(func(i, j int, eta float64) { fresh.setEdge(i, j, eta) })
	if !reflect.DeepEqual(g, fresh) {
		t.Fatalf("%s: graph is not DeepEqual to one built fresh from its edges", label)
	}
}

// randomGraphOp applies one random operation to both graphs and fails if
// their errors disagree. It draws node IDs from ids (the last one is never
// added, so lookups of unknown IDs are exercised too), transmissivities
// from a tie-heavy set with occasional invalid values, and indices that are
// sometimes out of range.
func randomGraphOp(t *testing.T, rng *rand.Rand, g *Graph, d *denseGraph, ids []string) string {
	t.Helper()
	known := ids[:len(ids)-1]
	pick := func() string { return ids[rng.Intn(len(ids))] }
	eta := func() float64 {
		switch r := rng.Intn(10); {
		case r < 6:
			return tieEtas[rng.Intn(len(tieEtas))]
		case r < 9:
			return rng.Float64()
		default:
			return []float64{-0.5, 1.5, math.NaN()}[rng.Intn(3)]
		}
	}
	index := func() int { return rng.Intn(d.NumNodes()+2) - 1 }
	sameErr := func(op string, ge, de error) string {
		if (ge == nil) != (de == nil) {
			t.Fatalf("%s: error %v, dense %v", op, ge, de)
		}
		return op
	}
	switch r := rng.Intn(100); {
	case r < 10:
		id := known[rng.Intn(len(known))]
		if gi, di := g.AddNode(id), d.AddNode(id); gi != di {
			t.Fatalf("AddNode(%s) = %d, dense %d", id, gi, di)
		}
		return "AddNode " + id
	case r < 35:
		a, b, e := known[rng.Intn(len(known))], known[rng.Intn(len(known))], eta()
		return sameErr(fmt.Sprintf("AddEdge(%s,%s,%v)", a, b, e), g.AddEdge(a, b, e), d.AddEdge(a, b, e))
	case r < 60:
		i, j, e := index(), index(), eta()
		return sameErr(fmt.Sprintf("AddEdgeByIndex(%d,%d,%v)", i, j, e), g.AddEdgeByIndex(i, j, e), d.AddEdgeByIndex(i, j, e))
	case r < 72:
		// Update or remove an existing edge, in either endpoint order.
		edges := denseEdges(d)
		if len(edges) == 0 {
			return "no-op"
		}
		e := edges[rng.Intn(len(edges))]
		i, j := e.i, e.j
		if rng.Intn(2) == 0 {
			i, j = j, i
		}
		if rng.Intn(2) == 0 {
			v := tieEtas[rng.Intn(len(tieEtas))]
			return sameErr(fmt.Sprintf("update(%d,%d,%v)", i, j, v), g.AddEdgeByIndex(i, j, v), d.AddEdgeByIndex(i, j, v))
		}
		g.RemoveEdgeByIndex(i, j)
		d.RemoveEdgeByIndex(i, j)
		return fmt.Sprintf("remove existing (%d,%d)", i, j)
	case r < 82:
		a, b := pick(), pick()
		g.RemoveEdge(a, b)
		d.RemoveEdge(a, b)
		return fmt.Sprintf("RemoveEdge(%s,%s)", a, b)
	case r < 90:
		i, j := index(), index()
		g.RemoveEdgeByIndex(i, j)
		d.RemoveEdgeByIndex(i, j)
		return fmt.Sprintf("RemoveEdgeByIndex(%d,%d)", i, j)
	case r < 95:
		g.ResetEdges()
		d.ResetEdges()
		return "ResetEdges"
	default:
		g.Reset()
		d.Reset()
		return "Reset"
	}
}

// TestGraphMatchesDenseReference pins the sparse graph to the retired dense
// matrix over random operation sequences: adds in and out of index order,
// updates, removals of present and absent edges, invalid edges, Reset,
// ResetEdges and nodes added after edges exist. After every operation the
// two must answer every query alike, and so must their clones, which then
// carry on in place of the originals half of the time.
func TestGraphMatchesDenseReference(t *testing.T) {
	ids := make([]string, 25)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%02d", (i*7)%len(ids)) // insertion order ≠ ID order
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, d := NewGraph(), newDenseGraph()
		for step := 0; step < 250; step++ {
			op := randomGraphOp(t, rng, g, d, ids)
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			requireGraphEqual(t, g, d, ids, label)
			if rng.Intn(25) == 0 {
				gc, dc := g.Clone(), d.Clone()
				requireGraphEqual(t, gc, dc, ids, label+", clone")
				if rng.Intn(2) == 0 {
					g, d = gc, dc
				} else {
					// Editing the clone must leave the original intact.
					gc.ResetEdges()
					requireGraphEqual(t, g, d, ids, label+", original after editing its clone")
				}
			}
		}
	}
}

// TestBaselinesMatchDenseReference pins Dijkstra and ClassicBellmanFord,
// which walk the neighbour rows, DeepEqual to the verbatim dense-matrix
// baselines on tie-heavy and continuous random graphs, from every source,
// under all three cost functions.
func TestBaselinesMatchDenseReference(t *testing.T) {
	costs := []struct {
		name string
		fn   CostFunc
	}{{"neglog", NegLogEtaCost(0)}, {"inverse", InverseEtaCost(0)}, {"hops", HopCountCost()}}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = tieGraph(t, rng, 4+rng.Intn(30), 0.1+0.3*rng.Float64())
		} else {
			g = randomComponentGraph(rng, 1+rng.Intn(40), trial%4 == 1)
		}
		d := denseOf(g)
		for _, c := range costs {
			for _, src := range g.Nodes() {
				label := fmt.Sprintf("trial %d cost %s src %s", trial, c.name, src)
				got, err := Dijkstra(g, src, c.fn)
				if err != nil {
					t.Fatal(err)
				}
				want, err := denseDijkstra(d, src, c.fn)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Dijkstra differs from the dense reference\n got %+v\nwant %+v", label, got, want)
				}
				got, err = ClassicBellmanFord(g, src, c.fn)
				if err != nil {
					t.Fatal(err)
				}
				want, err = denseClassicBellmanFord(d, src, c.fn)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ClassicBellmanFord differs from the dense reference\n got %+v\nwant %+v", label, got, want)
				}
			}
		}
	}
}

// TestDijkstraAllocsIndependentOfSettledNodes: one graph holds an isolated
// pair and a 200-node sparse component. Dijkstra from the pair settles two
// nodes, from the component two hundred; both calls must allocate the same
// number of times (result maps and per-node arrays sized by the node
// count), so settling a node costs no allocation.
func TestDijkstraAllocsIndependentOfSettledNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnectedGraph(rng, 200, 100)
	if err := g.AddEdge("pair-a", "pair-b", 0.5); err != nil {
		t.Fatal(err)
	}
	cost := NegLogEtaCost(0)
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Dijkstra(g, src, cost); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs("pair-a"), allocs(g.Nodes()[0])
	if few != many {
		t.Fatalf("Dijkstra allocates %.0f times settling 2 nodes and %.0f settling 200; want equal", few, many)
	}
}

// RequireKernelsMatchDense fails unless, on g, Dijkstra from every node of
// srcs and disjoint-route extraction over an Adjacency — for every ordered
// pair of srcs with a path, budgets k = 1..4 — are DeepEqual to the dense
// reference kernels on a dense copy of g. Exported for the external test
// package, which builds real SpaceGround-108 snapshots.
func RequireKernelsMatchDense(tb testing.TB, g *Graph, srcs []string, label string) {
	tb.Helper()
	d := denseOf(g)
	var (
		adj Adjacency
		ds  DisjointScratch
		ref denseDisjointRef
	)
	cost := NegLogEtaCost(0)
	adj.Load(g, cost)
	for _, src := range srcs {
		got, err := Dijkstra(g, src, cost)
		if err != nil {
			tb.Fatal(err)
		}
		want, err := denseDijkstra(d, src, cost)
		if err != nil {
			tb.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			tb.Fatalf("%s: Dijkstra from %s differs from the dense reference", label, src)
		}
		for _, dst := range srcs {
			if dst == src {
				continue
			}
			primary, err := got.PathTo(dst)
			if err != nil {
				continue // unreachable
			}
			for k := 1; k <= 4; k++ {
				want, err := ref.Extract(d, primary, k)
				if err != nil {
					tb.Fatal(err)
				}
				gotPaths, err := ds.ExtractOn(&adj, primary, k)
				if err != nil {
					tb.Fatal(err)
				}
				if !reflect.DeepEqual(gotPaths, want) {
					tb.Fatalf("%s: %s->%s k=%d: ExtractOn %v, dense reference %v", label, src, dst, k, gotPaths, want)
				}
			}
		}
	}
}
