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

// TestSourceTreesMatchesDijkstra pins the serving kernel against the
// map-packed baseline on tie-heavy multi-component graphs under all three
// production costs: every answer of a random query sequence — repeated
// sources, destinations settled earlier, later or never — is the baseline's
// path, and every node a paused tree has settled carries the baseline's
// distance and predecessor bit for bit. Querying every destination then
// completes each tree, which must match the baseline everywhere. Half the
// queries append to a non-empty buffer, whose prefix must survive.
func TestSourceTreesMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trees SourceTrees
	checked, unreachable := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(30)
		g := NewGraph()
		buildComponentTieGraph(t, rng, g, n, 1+rng.Intn(3), 0.15+0.3*rng.Float64())
		for _, arm := range costArms {
			trees.Load(g, arm.cost)
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
				tree := &trees.trees[trees.slot[si]]
				for i, done := range tree.done {
					if done {
						requireScratchNode(t, g, tree, baseline(si), i, label+" settled")
					}
				}
				checked++
				if !ok {
					unreachable++
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
	if unreachable == 0 || unreachable == checked {
		t.Fatalf("%d of %d queries unreachable; the generator must produce both", unreachable, checked)
	}
}

// TestSourceTreesCounters: Trees counts the distinct sources queried since
// the last Load and Settled the nodes their trees settled, both restarting
// at every Load.
func TestSourceTreesCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGraph()
	buildComponentTieGraph(t, rng, g, 20, 2, 0.3)
	var trees SourceTrees
	for round := 0; round < 2; round++ {
		trees.Load(g, InverseEtaCost(0))
		if trees.Trees() != 0 || trees.Settled() != 0 {
			t.Fatalf("round %d: %d trees, %d settled right after Load", round, trees.Trees(), trees.Settled())
		}
		srcs := map[int]bool{}
		for q := 0; q < 30; q++ {
			si := rng.Intn(20)
			srcs[si] = true
			if _, _, err := trees.AppendPath(nil, nodeName(si), nodeName(rng.Intn(20))); err != nil {
				t.Fatal(err)
			}
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
