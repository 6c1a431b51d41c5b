package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// baselinePath is the map-packed baseline's answer for (src, dst): the
// path and true, or nil and false when dst is unreachable.
func baselinePath(t *testing.T, res *SingleSourceResult, dst string) ([]string, bool) {
	t.Helper()
	if math.IsInf(res.Dist[dst], 1) {
		return nil, false
	}
	path, err := res.PathTo(dst)
	if err != nil {
		t.Fatalf("baseline PathTo: %v", err)
	}
	return path, true
}

// edgeComponents labels g's connected components by edge reachability,
// independently of the kernel: comp[i] == comp[j] exactly when some edge
// path joins i and j, whatever the edges cost.
func edgeComponents(g *Graph) []int {
	comp := make([]int, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	var visit func(u, c int)
	visit = func(u, c int) {
		comp[u] = c
		for _, e := range g.rows[u] {
			if comp[e.to] < 0 {
				visit(int(e.to), c)
			}
		}
	}
	for i := range comp {
		if comp[i] < 0 {
			visit(i, i)
		}
	}
	return comp
}

// TestSourceTreesMatchesDijkstra pins the serving kernel against the
// map-packed baseline on tie-heavy multi-component graphs under all three
// production costs: every answer of a random query sequence — repeated
// sources, destinations settled earlier, later or never — is the baseline's
// path, and every node a paused tree has settled carries the baseline's
// distance and predecessor bit for bit. A source has a tree exactly when it
// was queried for a destination in its own component: a cross-component
// query is answered without one. Querying every destination then completes
// each tree, which must match the baseline everywhere. Half the queries
// append to a non-empty buffer, whose prefix must survive.
func TestSourceTreesMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trees SourceTrees
	checked, unreachable, crossed := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(30)
		g := NewGraph()
		buildComponentTieGraph(t, rng, g, n, 1+rng.Intn(3), 0.15+0.3*rng.Float64())
		comp := edgeComponents(g)
		for _, arm := range costArms {
			trees.Load(g, arm.cost)
			started := make(map[int]bool)
			want := make(map[int]*SingleSourceResult)
			baseline := func(si int) *SingleSourceResult {
				if res, ok := want[si]; ok {
					return res
				}
				res, err := Dijkstra(g, nodeName(si), arm.cost)
				if err != nil {
					t.Fatalf("Dijkstra: %v", err)
				}
				want[si] = res
				return res
			}
			query := func(si, di int, label string) {
				src, dst := nodeName(si), nodeName(di)
				var prefix []string
				if rng.Intn(2) == 0 {
					prefix = []string{"prefix"}
				}
				got, ok, err := trees.AppendPath(prefix, src, dst)
				if err != nil {
					t.Fatalf("%s: AppendPath(%s, %s): %v", label, src, dst, err)
				}
				if len(got) < len(prefix) || (prefix != nil && got[0] != prefix[0]) {
					t.Fatalf("%s: AppendPath lost the buffer's prefix: %v", label, got)
				}
				wantPath, wantOK := baselinePath(t, baseline(si), dst)
				if ok != wantOK || !reflect.DeepEqual(append([]string{}, got[len(prefix):]...), append([]string{}, wantPath...)) {
					t.Fatalf("%s: %s->%s = %v (ok %v), baseline %v (ok %v)", label, src, dst, got[len(prefix):], ok, wantPath, wantOK)
				}
				checked++
				if !ok {
					unreachable++
				}
				if comp[si] != comp[di] {
					crossed++
				} else {
					started[si] = true
				}
				if has := trees.slot[si] >= 0; has != started[si] {
					t.Fatalf("%s: after %s->%s source %s has a tree: %v, want %v", label, src, dst, src, has, started[si])
				}
				if !started[si] {
					return
				}
				tree := &trees.trees[trees.slot[si]]
				for i, done := range tree.done {
					if done {
						requireScratchNode(t, g, tree, baseline(si), i, label+" settled")
					}
				}
			}
			label := fmt.Sprintf("trial %d cost %s", trial, arm.name)
			for q := 0; q < 3*n; q++ {
				query(rng.Intn(n), rng.Intn(n), label)
			}
			for si := 0; si < n; si++ {
				for di := 0; di < n; di++ {
					query(si, di, label+" complete")
				}
				tree := &trees.trees[trees.slot[si]]
				for i := range g.ids {
					requireScratchNode(t, g, tree, baseline(si), i, label+" complete")
				}
			}
		}
	}
	if unreachable == 0 || unreachable == checked || crossed == 0 {
		t.Fatalf("%d of %d queries unreachable, %d across components; the generator must produce each kind", unreachable, checked, crossed)
	}
}

// TestSourceTreesCounters: Trees counts the distinct sources queried for a
// destination in their own component since the last Load and Settled the
// nodes their trees settled, both restarting at every Load; a
// cross-component query starts no tree.
func TestSourceTreesCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGraph()
	buildComponentTieGraph(t, rng, g, 20, 2, 0.3)
	comp := edgeComponents(g)
	var trees SourceTrees
	for round := 0; round < 2; round++ {
		trees.Load(g, InverseEtaCost(0))
		if trees.Trees() != 0 || trees.Settled() != 0 {
			t.Fatalf("round %d: %d trees, %d settled right after Load", round, trees.Trees(), trees.Settled())
		}
		srcs := map[int]bool{}
		crossed := 0
		for q := 0; q < 30; q++ {
			si, di := rng.Intn(20), rng.Intn(20)
			if comp[si] == comp[di] {
				srcs[si] = true
			} else {
				crossed++
			}
			if _, _, err := trees.AppendPath(nil, nodeName(si), nodeName(di)); err != nil {
				t.Fatal(err)
			}
		}
		if crossed == 0 {
			t.Fatalf("round %d: no cross-component query", round)
		}
		settled := 0
		for si := range srcs {
			for _, done := range trees.trees[trees.slot[si]].done {
				if done {
					settled++
				}
			}
		}
		if trees.Trees() != len(srcs) || trees.Settled() != settled {
			t.Fatalf("round %d: Trees %d Settled %d, want %d and %d", round, trees.Trees(), trees.Settled(), len(srcs), settled)
		}
	}
}

// TestSourceTreesReuseAcrossLoads: one kernel reused across Loads of
// different graphs — fresh ones and one pooled graph rebuilt in place with
// a new size and edge set — and different costs must answer exactly like a
// fresh kernel per snapshot. A tree, slot or row kept across Load would
// answer from the previous graph.
func TestSourceTreesReuseAcrossLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var reused SourceTrees
	pooled := NewGraph()
	for trial := 0; trial < 60; trial++ {
		g := pooled
		if trial%3 == 0 {
			g = NewGraph()
		}
		n := 3 + rng.Intn(40)
		buildComponentTieGraph(t, rng, g, n, 1+rng.Intn(4), 0.1+0.4*rng.Float64())
		arm := costArms[rng.Intn(len(costArms))]
		var fresh SourceTrees
		fresh.Load(g, arm.cost)
		reused.Load(g, arm.cost)
		var buf []string
		for q := 0; q < 2*n; q++ {
			src, dst := nodeName(rng.Intn(n)), nodeName(rng.Intn(n))
			want, wantOK, err := fresh.AppendPath(nil, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := reused.AppendPath(buf[:0], src, dst)
			if err != nil {
				t.Fatal(err)
			}
			buf = got
			if ok != wantOK || !reflect.DeepEqual(append([]string{}, got...), append([]string{}, want...)) {
				t.Fatalf("trial %d cost %s %s->%s: reused %v (ok %v), fresh %v (ok %v)", trial, arm.name, src, dst, got, ok, want, wantOK)
			}
		}
	}
}

// TestSourceTreesRelabelAfterLoad: component labels belong to one
// snapshot. One pooled graph is rebuilt in place so that its components
// merge, split and grow between Loads, each snapshot queried in full; a
// label kept across Load would answer a now-joined pair "unreachable" (or
// skip the check for a grown node set), where the baseline finds a path.
func TestSourceTreesRelabelAfterLoad(t *testing.T) {
	g := NewGraph()
	var trees SourceTrees
	build := func(n int, edges [][2]int) {
		g.Reset()
		for i := 0; i < n; i++ {
			g.AddNode(nodeName(i))
		}
		for _, e := range edges {
			if err := g.AddEdge(nodeName(e[0]), nodeName(e[1]), 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	joined := 0
	for step, snap := range []struct {
		n     int
		edges [][2]int
	}{
		{4, [][2]int{{0, 1}, {2, 3}}},         // two components
		{4, [][2]int{{0, 1}, {2, 3}, {1, 2}}}, // merged
		{4, [][2]int{{0, 1}}},                 // split again
		{6, [][2]int{{0, 1}, {1, 4}, {4, 5}}}, // grown
		{6, [][2]int{{0, 1}, {1, 4}, {3, 2}}}, // regrouped
		{3, [][2]int{{0, 2}}},                 // shrunk
		{6, [][2]int{{5, 0}, {4, 3}, {3, 0}}}, // grown again
		{6, [][2]int{{5, 0}, {4, 3}, {3, 0}, {1, 2}, {2, 4}}},
	} {
		build(snap.n, snap.edges)
		trees.Load(g, InverseEtaCost(0))
		for si := 0; si < snap.n; si++ {
			want, err := Dijkstra(g, nodeName(si), InverseEtaCost(0))
			if err != nil {
				t.Fatal(err)
			}
			for di := 0; di < snap.n; di++ {
				got, ok, err := trees.AppendPath(nil, nodeName(si), nodeName(di))
				if err != nil {
					t.Fatal(err)
				}
				wantPath, wantOK := baselinePath(t, want, nodeName(di))
				if ok != wantOK || !reflect.DeepEqual(got, wantPath) {
					t.Fatalf("snapshot %d %s->%s = %v (ok %v), baseline %v (ok %v)", step, nodeName(si), nodeName(di), got, ok, wantPath, wantOK)
				}
				if ok && si != di {
					joined++
				}
			}
		}
	}
	if joined == 0 {
		t.Fatal("no snapshot joined two nodes")
	}
}

// TestSourceTreesInfiniteCostEdges: an η = 0 edge under 1/(η+ε) with ε = 0
// costs +Inf. It joins a component, so the component check lets the query
// through, but no search relaxes it: the answer must still be the
// baseline's "unreachable" where only such edges connect, and the
// baseline's path elsewhere.
func TestSourceTreesInfiniteCostEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cost := CostFunc(func(eta float64) float64 { return CostFromEta(eta, 0) })
	if !math.IsInf(cost(0), 1) {
		t.Fatalf("cost(0) = %v, want +Inf", cost(0))
	}
	var trees SourceTrees
	blocked, reached := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode(nodeName(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					eta := []float64{0, 0, 0.5, 1}[rng.Intn(4)]
					if err := g.AddEdge(nodeName(i), nodeName(j), eta); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		comp := edgeComponents(g)
		trees.Load(g, cost)
		for si := 0; si < n; si++ {
			want, err := Dijkstra(g, nodeName(si), cost)
			if err != nil {
				t.Fatal(err)
			}
			for di := 0; di < n; di++ {
				got, ok, err := trees.AppendPath(nil, nodeName(si), nodeName(di))
				if err != nil {
					t.Fatal(err)
				}
				wantPath, wantOK := baselinePath(t, want, nodeName(di))
				if ok != wantOK || !reflect.DeepEqual(got, wantPath) {
					t.Fatalf("trial %d %s->%s = %v (ok %v), baseline %v (ok %v)", trial, nodeName(si), nodeName(di), got, ok, wantPath, wantOK)
				}
				switch {
				case !ok && comp[si] == comp[di]:
					blocked++
				case ok && si != di:
					reached++
				}
			}
		}
	}
	if blocked == 0 || reached == 0 {
		t.Fatalf("%d same-component pairs unreachable, %d reached; the generator must produce both", blocked, reached)
	}
}

// TestSourceTreesUnknownNodes: a source or destination the snapshot's graph
// does not hold is an error naming it, never a silent "unreachable", and
// the buffer comes back unchanged.
func TestSourceTreesUnknownNodes(t *testing.T) {
	g := NewGraph()
	if err := g.AddEdge("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	var trees SourceTrees
	trees.Load(g, InverseEtaCost(0))
	buf := []string{"kept"}
	for _, c := range []struct{ src, dst, want string }{
		{"ghost", "b", `routing: unknown source "ghost"`},
		{"a", "ghost", `routing: unknown destination "ghost"`},
	} {
		got, ok, err := trees.AppendPath(buf, c.src, c.dst)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("AppendPath(%s, %s) error %v, want %q", c.src, c.dst, err, c.want)
		}
		if ok || !reflect.DeepEqual(got, buf) {
			t.Fatalf("AppendPath(%s, %s) = %v (ok %v) on error, want the buffer unchanged", c.src, c.dst, got, ok)
		}
	}
	if path, ok, err := trees.AppendPath(nil, "a", "b"); err != nil || !ok || !reflect.DeepEqual(path, []string{"a", "b"}) {
		t.Fatalf("AppendPath(a, b) = %v, %v, %v", path, ok, err)
	}
}

// TestSourceTreesZeroAllocs: once a kernel has served snapshots of every
// size and query shape, a Load per snapshot and every query into a reused
// buffer — trees started, resumed and read — allocate nothing.
func TestSourceTreesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type query struct{ src, dst string }
	var (
		graphs  []*Graph
		queries [][]query
	)
	for _, n := range []int{60, 80, 40} {
		g := NewGraph()
		buildComponentTieGraph(t, rng, g, n, 3, 0.1)
		graphs = append(graphs, g)
		var qs []query
		for q := 0; q < 50; q++ {
			qs = append(qs, query{nodeName(rng.Intn(n)), nodeName(rng.Intn(n))})
		}
		queries = append(queries, qs)
	}
	cost := InverseEtaCost(0)
	var (
		trees SourceTrees
		buf   []string
	)
	pass := func() {
		for i, g := range graphs {
			trees.Load(g, cost)
			for _, q := range queries[i] {
				var err error
				if buf, _, err = trees.AppendPath(buf[:0], q.src, q.dst); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("SourceTrees allocates %.1f times per steady-state pass, want 0", allocs)
	}
}
