package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// runFullSweep is the Algorithm 1 solver as it was before relaxation rounds
// were restricted to connected components and before the graph became
// sparse, kept verbatim as the differential oracle for both changes: it
// reads the dense reference matrix (densegraph_ref_test.go), and every row
// sweeps every node u against all of u's neighbors. It shares only the
// label handling (setIDs) with Run.
func (s *BellmanFordScratch) runFullSweep(g *denseGraph, epsilon float64) *Tables {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	t := &s.t
	t.Epsilon = epsilon
	s.rounds = 0
	n := g.NumNodes()
	s.setIDs(g.ids)
	if n == 0 {
		return t
	}
	if cap(t.cost) >= n*n {
		t.cost = t.cost[:n*n]
		t.via = t.via[:n*n]
	} else {
		t.cost = make([]float64, n*n)
		t.via = make([]int32, n*n)
	}

	s.nbrs = s.nbrs[:0]
	if cap(s.off) >= n+1 {
		s.off = s.off[:1]
	} else {
		s.off = make([]int32, 1, n+1)
	}
	s.off[0] = 0
	for u := 0; u < n; u++ {
		if u < g.matN {
			row := g.mat[u*g.matN : (u+1)*g.matN]
			for v, eta := range row {
				if eta >= 0 {
					s.nbrs = append(s.nbrs, int32(v))
				}
			}
		}
		s.off = append(s.off, int32(len(s.nbrs)))
	}

	s.initializeDense(g, epsilon)

	for round := 0; round < n-1; round++ {
		s.rounds = round + 1
		if !s.relaxFullSweep() {
			break
		}
	}
	return t
}

// initializeDense is INITIALIZE over the dense reference matrix, verbatim:
// it seeds the tables per Algorithm 1's INITIALIZE, cost 0 to self,
// 1/(η+ε) to adjacent nodes, +Inf elsewhere. Buffers are sized before the
// call.
func (s *BellmanFordScratch) initializeDense(g *denseGraph, epsilon float64) {
	t := &s.t
	n := t.n
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		var arow []float64
		if i < g.matN {
			arow = g.mat[i*g.matN : (i+1)*g.matN]
		}
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				row[j] = 0
				vrow[j] = -1
			case j < len(arow) && arow[j] >= 0:
				row[j] = CostFromEta(arow[j], epsilon)
				vrow[j] = int32(j)
			default:
				row[j] = inf
				vrow[j] = -1
			}
		}
	}
}

// relaxFullSweep is the full-sweep UPDATE round, verbatim.
func (s *BellmanFordScratch) relaxFullSweep() bool {
	t := &s.t
	n := t.n
	changed := false
	for i := 0; i < n; i++ {
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		for u := 0; u < n; u++ {
			if u == i {
				continue
			}
			for _, v := range s.nbrs[s.off[u]:s.off[u+1]] {
				if int(v) == i {
					// Reaching u directly as our neighbor was already
					// seeded in INITIALIZE.
					continue
				}
				cand := row[v] + t.cost[int(v)*n+u]
				if cand < row[u] {
					row[u] = cand
					vrow[u] = v
					changed = true
				}
			}
		}
	}
	return changed
}

// RequireFullSweepEqual fails the test unless the tables and round count of
// the last Run on s equal those of a fresh full-sweep reference on g.
// Only the live n×n prefix of the reused buffers is compared, so an empty
// graph's empty tables equal the fresh reference's nil ones. Exported for
// the external test package, which builds real SpaceGround-108 snapshots.
func RequireFullSweepEqual(tb testing.TB, s *BellmanFordScratch, g *Graph, epsilon float64, label string) {
	tb.Helper()
	got := &s.t
	var ref BellmanFordScratch
	want := ref.runFullSweep(denseOf(g), epsilon)
	if got.n != want.n || !slices.Equal(got.ids, want.ids) {
		tb.Fatalf("%s: ids differ:\ngot  %v\nwant %v", label, got.ids, want.ids)
	}
	live := got.n * got.n
	if got.n > 0 && !reflect.DeepEqual(got.cost[:live], want.cost[:live]) {
		tb.Fatalf("%s: cost tables differ from the full-sweep reference", label)
	}
	if got.n > 0 && !reflect.DeepEqual(got.via[:live], want.via[:live]) {
		tb.Fatalf("%s: via tables differ from the full-sweep reference", label)
	}
	if s.Rounds() != ref.Rounds() {
		tb.Fatalf("%s: Rounds() = %d, full sweep ran %d", label, s.Rounds(), ref.Rounds())
	}
}

// tieEtas are the transmissivities of tie-heavy graphs: few distinct costs,
// so many candidate paths tie and the strict < rule decides every via.
var tieEtas = []float64{0, 0.25, 0.5, 1}

// randomComponentGraph builds an n-node graph whose nodes are assigned to
// random groups, with random edges only inside each group, so it has many
// components and (for groups of one or edgeless draws) isolated nodes.
// With ties, etas come from tieEtas; otherwise they are continuous.
func randomComponentGraph(rng *rand.Rand, n int, ties bool) *Graph {
	g := NewGraph()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%02d", i)
		g.AddNode(ids[i])
	}
	groups := 1 + rng.Intn(n)
	group := make([]int, n)
	for i := range group {
		group[i] = rng.Intn(groups)
	}
	density := 0.05 + 0.6*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if group[i] != group[j] || rng.Float64() >= density {
				continue
			}
			eta := 0.05 + 0.95*rng.Float64()
			if ties {
				eta = tieEtas[rng.Intn(len(tieEtas))]
			}
			_ = g.AddEdge(ids[i], ids[j], eta)
		}
	}
	return g
}

func TestRunMatchesFullSweepOnComponentGraphs(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomComponentGraph(rng, 1+rng.Intn(60), seed%2 == 1)
		var s BellmanFordScratch
		s.Run(g, DefaultEpsilon)
		RequireFullSweepEqual(t, &s, g, DefaultEpsilon, fmt.Sprintf("seed %d", seed))
	}
}

func TestRunMatchesFullSweepOnTieHeavyGraphs(t *testing.T) {
	// Connected and fragmented tie-heavy graphs: η = 0 edges cost 1/ε, and
	// equal-cost alternatives make the via choice order-sensitive.
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 2 + rng.Intn(40)
		var g *Graph
		if seed%2 == 0 {
			g = randomComponentGraph(rng, n, true)
		} else {
			g = randomConnectedGraph(rng, n, 2*n)
			g.EachEdge(func(i, j int, _ float64) {
				g.setEdge(i, j, tieEtas[rng.Intn(len(tieEtas))])
			})
		}
		var s BellmanFordScratch
		s.Run(g, DefaultEpsilon)
		RequireFullSweepEqual(t, &s, g, DefaultEpsilon, fmt.Sprintf("seed %d", seed))
	}
}

func TestRunReusedScratchMatchesFullSweep(t *testing.T) {
	// One scratch across graphs that grow, shrink, split and merge: stale
	// component labels, member lists or offsets from an earlier graph would
	// change which rows relax and show up as a differing table.
	rng := rand.New(rand.NewSource(42))
	var s BellmanFordScratch
	sizes := []int{5, 60, 1, 30, 59, 2, 61, 0, 17, 60, 3}
	for k := 0; k < 120; k++ {
		n := sizes[k%len(sizes)]
		var g *Graph
		switch k % 3 {
		case 0:
			g = randomComponentGraph(rng, max(n, 1), k%2 == 0)
		case 1:
			g = randomConnectedGraph(rng, max(n, 1), n)
		default:
			g = NewGraph()
			for i := 0; i < n; i++ {
				g.AddNode(fmt.Sprintf("v%02d", i))
			}
		}
		s.Run(g, DefaultEpsilon)
		RequireFullSweepEqual(t, &s, g, DefaultEpsilon, fmt.Sprintf("graph %d (n=%d)", k, g.NumNodes()))
	}
}

func TestLabelComponentsListsMembersAscending(t *testing.T) {
	// Components {0,2,4}, {1,3} and the edgeless nodes 5 and 6: numbered by
	// smallest member, members ascending.
	g := NewGraph()
	for i := 0; i < 7; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for _, e := range [][2]int{{4, 0}, {2, 4}, {3, 1}} {
		if err := g.AddEdgeByIndex(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	var s BellmanFordScratch
	s.Run(g, DefaultEpsilon)
	if want := []int32{0, 1, 0, 1, 0, 2, 3}; !reflect.DeepEqual(s.comp, want) {
		t.Errorf("comp = %v, want %v", s.comp, want)
	}
	if want := []int32{0, 2, 4, 1, 3, 5, 6}; !reflect.DeepEqual(s.members, want) {
		t.Errorf("members = %v, want %v", s.members, want)
	}
	if want := []int32{0, 3, 5, 6, 7}; !reflect.DeepEqual(s.compOff, want) {
		t.Errorf("compOff = %v, want %v", s.compOff, want)
	}
}

func TestRunSteadyStateZeroAllocs(t *testing.T) {
	// Repeated runs over same-sized graphs of different structure reuse
	// every buffer — tables, neighbor lists and component lists — once the
	// first run has sized them.
	rng := rand.New(rand.NewSource(5))
	const n = 80
	graphs := []*Graph{
		randomComponentGraph(rng, n, false),
		randomConnectedGraph(rng, n, 2*n),
		randomComponentGraph(rng, n, true),
	}
	var s BellmanFordScratch
	for _, g := range graphs {
		s.Run(g, DefaultEpsilon)
	}
	k := 0
	allocs := testing.AllocsPerRun(30, func() {
		s.Run(graphs[k%len(graphs)], DefaultEpsilon)
		k++
	})
	if allocs != 0 {
		t.Fatalf("BellmanFordScratch.Run allocates %.1f times per steady-state run, want 0", allocs)
	}
}
