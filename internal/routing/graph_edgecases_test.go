package routing

import (
	"fmt"
	"testing"
)

// TestResetAfterGrowth drives Reset through graphs that grew to different
// sizes first: the recycled storage must behave exactly like a fresh graph
// for every subsequent shape, including shrinking back below the old
// capacity (where the old rows are reused) and growing past it.
func TestResetAfterGrowth(t *testing.T) {
	cases := []struct {
		name          string
		before, after int // node counts built before and after Reset
	}{
		{"shrink", 8, 3},
		{"same size", 5, 5},
		{"grow", 3, 9},
		{"empty before", 0, 4},
		{"single node after", 6, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			for i := 0; i < tc.before; i++ {
				g.AddNode(fmt.Sprintf("old%d", i))
			}
			for i := 1; i < tc.before; i++ {
				if err := g.AddEdgeByIndex(0, i, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			g.Reset()
			if g.NumNodes() != 0 || g.NumEdges() != 0 {
				t.Fatalf("Reset left %d nodes / %d edges", g.NumNodes(), g.NumEdges())
			}

			for i := 0; i < tc.after; i++ {
				if got := g.AddNode(fmt.Sprintf("new%d", i)); got != i {
					t.Fatalf("AddNode #%d after Reset returned index %d", i, got)
				}
			}
			for i := 1; i < tc.after; i++ {
				if err := g.AddEdgeByIndex(i-1, i, 0.9); err != nil {
					t.Fatal(err)
				}
			}
			wantEdges := tc.after - 1
			if wantEdges < 0 {
				wantEdges = 0
			}
			if g.NumEdges() != wantEdges {
				t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), wantEdges)
			}
			// No edge may involve a pre-Reset identity, and the chain built
			// after Reset must be exactly what EachEdge reports.
			seen := 0
			g.EachEdge(func(i, j int, eta float64) {
				seen++
				if j != i+1 || eta != 0.9 {
					t.Fatalf("unexpected edge (%d,%d,%v) after Reset", i, j, eta)
				}
			})
			if seen != wantEdges {
				t.Fatalf("EachEdge saw %d edges, want %d", seen, wantEdges)
			}
			for i := 0; i < tc.before; i++ {
				id := fmt.Sprintf("old%d", i)
				if g.HasNode(id) {
					t.Fatalf("pre-Reset node %q still present", id)
				}
			}
		})
	}
}

// TestAddEdgeByIndexAliasingAcrossRestride grows the node set after edges
// exist and checks that no edge moves, appears or disappears when the
// graph's storage grows for the new nodes: storage that aliased old rows
// onto new ones would show up here.
func TestAddEdgeByIndexAliasingAcrossRestride(t *testing.T) {
	cases := []struct {
		name  string
		base  int // nodes before the first edges
		grow  []int
		first float64
	}{
		{"grow by one", 3, []int{1}, 0.7},
		{"grow by many", 2, []int{5}, 0.6},
		{"grow repeatedly", 3, []int{1, 2, 3}, 0.8},
		{"double the stride", 4, []int{4}, 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			for i := 0; i < tc.base; i++ {
				g.AddNode(fmt.Sprintf("n%d", i))
			}
			want := map[[2]int]float64{}
			// A clique over the base nodes maximizes the live rows when
			// the graph grows.
			for i := 0; i < tc.base; i++ {
				for j := i + 1; j < tc.base; j++ {
					eta := tc.first - 0.01*float64(i*tc.base+j)
					if err := g.AddEdgeByIndex(i, j, eta); err != nil {
						t.Fatal(err)
					}
					want[[2]int{i, j}] = eta
				}
			}
			n := tc.base
			for _, extra := range tc.grow {
				for k := 0; k < extra; k++ {
					g.AddNode(fmt.Sprintf("n%d", n+k))
				}
				n += extra
				// The first index-based edge after growth touches the
				// newest node's row while the old edges are live.
				eta := 0.5 / float64(n)
				if err := g.AddEdgeByIndex(0, n-1, eta); err != nil {
					t.Fatal(err)
				}
				want[[2]int{0, n - 1}] = eta

				if g.NumEdges() != len(want) {
					t.Fatalf("NumEdges = %d, want %d after growing to %d nodes", g.NumEdges(), len(want), n)
				}
				got := map[[2]int]float64{}
				g.EachEdge(func(i, j int, eta float64) { got[[2]int{i, j}] = eta })
				if len(got) != len(want) {
					t.Fatalf("EachEdge saw %d edges, want %d", len(got), len(want))
				}
				for key, eta := range want {
					if got[key] != eta {
						t.Fatalf("edge %v = %v after growth, want %v", key, got[key], eta)
					}
				}
			}
		})
	}
}

// TestIndexOfAfterEviction pins what IndexOf, Eta, Neighbors and RemoveEdge
// report for nodes that were evicted by Reset, added after the last edge
// operation, or simply never existed.
func TestIndexOfAfterEviction(t *testing.T) {
	g := NewGraph()
	g.AddNode("a")
	g.AddNode("b")
	if err := g.AddEdge("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.AddNode("b") // only one survivor, reusing an old ID at a new index

	cases := []struct {
		name      string
		id        string
		wantIdx   int
		wantFound bool
	}{
		{"evicted", "a", 0, false},
		{"re-added at new index", "b", 0, true},
		{"never existed", "zz", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			i, ok := g.IndexOf(tc.id)
			if ok != tc.wantFound {
				t.Fatalf("IndexOf(%q) found = %v, want %v", tc.id, ok, tc.wantFound)
			}
			if ok && i != tc.wantIdx {
				t.Fatalf("IndexOf(%q) = %d, want %d", tc.id, i, tc.wantIdx)
			}
			if got := g.HasNode(tc.id); got != tc.wantFound {
				t.Fatalf("HasNode(%q) = %v, want %v", tc.id, got, tc.wantFound)
			}
		})
	}

	// Queries touching evicted IDs degrade to "absent", never panic.
	if _, ok := g.Eta("a", "b"); ok {
		t.Error("Eta over an evicted node reported an edge")
	}
	if nbrs := g.Neighbors("a"); nbrs != nil {
		t.Errorf("Neighbors of evicted node = %v", nbrs)
	}
	g.RemoveEdge("a", "b") // no-op, must not underflow the edge count
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after removing an evicted edge", g.NumEdges())
	}

	// A node added after the last edge operation is indexed and isolated:
	// edge queries must treat it as isolated, not out of range.
	g.AddNode("late")
	if i, ok := g.IndexOf("late"); !ok || i != 1 {
		t.Fatalf("IndexOf(late) = %d,%v", i, ok)
	}
	if _, ok := g.Eta("b", "late"); ok {
		t.Error("late node has an edge")
	}
	if nbrs := g.Neighbors("late"); nbrs != nil {
		t.Errorf("Neighbors(late) = %v before any edge op", nbrs)
	}
	g.RemoveEdge("b", "late") // absent edge to an isolated node: must be a no-op
	if err := g.AddEdge("b", "late", 0.25); err != nil {
		t.Fatal(err)
	}
	if eta, ok := g.Eta("b", "late"); !ok || eta != 0.25 {
		t.Fatalf("Eta(b,late) = %v,%v after adding the edge", eta, ok)
	}
}
