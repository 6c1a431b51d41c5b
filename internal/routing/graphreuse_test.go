package routing

import (
	"reflect"
	"testing"
)

// buildTriangle returns a graph with a fixed three-node topology.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, e := range []struct {
		a, b string
		eta  float64
	}{{"a", "b", 0.9}, {"b", "c", 0.8}, {"a", "c", 0.7}} {
		if err := g.AddEdge(e.a, e.b, e.eta); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestResetEdgesLeavesNoStaleEdges(t *testing.T) {
	g := buildTriangle(t)
	g.ResetEdges()
	if n := g.NumEdges(); n != 0 {
		t.Fatalf("NumEdges after ResetEdges = %d, want 0", n)
	}
	if n := g.NumNodes(); n != 3 {
		t.Fatalf("NumNodes after ResetEdges = %d, want 3", n)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		if _, ok := g.Eta(pair[0], pair[1]); ok {
			t.Errorf("edge %s-%s survived ResetEdges", pair[0], pair[1])
		}
	}
	if nbrs := g.Neighbors("a"); len(nbrs) != 0 {
		t.Errorf("Neighbors(a) after ResetEdges = %v, want empty", nbrs)
	}
	// Only the newly added edge may exist afterwards.
	if err := g.AddEdge("b", "c", 0.5); err != nil {
		t.Fatal(err)
	}
	if eta, ok := g.Eta("b", "c"); !ok || eta != 0.5 {
		t.Fatalf("Eta(b,c) = %v,%v after re-add, want 0.5,true", eta, ok)
	}
	if _, ok := g.Eta("a", "b"); ok {
		t.Error("stale edge a-b leaked through ResetEdges + re-add")
	}
	if n := g.NumEdges(); n != 1 {
		t.Fatalf("NumEdges = %d, want 1", n)
	}
}

func TestResetKeepsIndexAssignmentStable(t *testing.T) {
	g := buildTriangle(t)
	want := make(map[string]int)
	for _, id := range g.Nodes() {
		i, ok := g.IndexOf(id)
		if !ok {
			t.Fatalf("IndexOf(%q) missing", id)
		}
		want[id] = i
	}
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("Reset left %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}
	// Re-adding the same IDs in the same order must yield the same dense
	// indices — the contract SnapshotInto's index-based edge adds rely on.
	for _, id := range []string{"a", "b", "c"} {
		if got := g.AddNode(id); got != want[id] {
			t.Fatalf("AddNode(%q) after Reset = %d, want %d", id, got, want[id])
		}
	}
}

func TestReusedGraphDeepEqualsFreshGraph(t *testing.T) {
	// A reused graph that went through a different history must end up
	// DeepEqual to a freshly built one with the same contents.
	reused := buildTriangle(t)
	if err := reused.AddEdge("c", "d", 0.6); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	for _, id := range []string{"a", "b", "c", "d"} {
		reused.AddNode(id)
	}
	reused.ResetEdges()
	if err := reused.AddEdgeByIndex(0, 3, 0.25); err != nil {
		t.Fatal(err)
	}

	fresh := NewGraph()
	for _, id := range []string{"a", "b", "c", "d"} {
		fresh.AddNode(id)
	}
	fresh.ResetEdges()
	if err := fresh.AddEdge("a", "d", 0.25); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("reused graph != fresh graph:\nreused: %+v\nfresh:  %+v", reused, fresh)
	}
}

func TestAddNodeAfterEdgesRestrides(t *testing.T) {
	g := buildTriangle(t)
	// Adding a node after edges exist must preserve them through the next
	// edge operation.
	g.AddNode("d")
	if err := g.AddEdge("d", "a", 0.95); err != nil {
		t.Fatal(err)
	}
	want := map[[2]string]float64{
		{"a", "b"}: 0.9, {"b", "c"}: 0.8, {"a", "c"}: 0.7, {"a", "d"}: 0.95,
	}
	if n := g.NumEdges(); n != len(want) {
		t.Fatalf("NumEdges = %d, want %d", n, len(want))
	}
	for pair, eta := range want {
		if got, ok := g.Eta(pair[0], pair[1]); !ok || got != eta {
			t.Errorf("Eta(%s,%s) = %v,%v, want %v,true", pair[0], pair[1], got, ok, eta)
		}
	}
}

func TestAddEdgeByIndexValidation(t *testing.T) {
	g := NewGraph()
	g.AddNode("a")
	g.AddNode("b")
	cases := []struct {
		name    string
		i, j    int
		eta     float64
		wantErr bool
	}{
		{"valid", 0, 1, 0.5, false},
		{"self-loop", 0, 0, 0.5, true},
		{"out of range", 0, 2, 0.5, true},
		{"negative index", -1, 1, 0.5, true},
		{"eta above one", 0, 1, 1.5, true},
		{"eta negative", 0, 1, -0.5, true},
	}
	for _, tc := range cases {
		err := g.AddEdgeByIndex(tc.i, tc.j, tc.eta)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: AddEdgeByIndex(%d,%d,%v) error = %v, wantErr %v",
				tc.name, tc.i, tc.j, tc.eta, err, tc.wantErr)
		}
	}
}

func TestRemoveEdgeKeepsCountConsistent(t *testing.T) {
	g := buildTriangle(t)
	g.RemoveEdge("a", "b")
	if n := g.NumEdges(); n != 2 {
		t.Fatalf("NumEdges after remove = %d, want 2", n)
	}
	g.RemoveEdge("a", "b") // double remove is a no-op
	if n := g.NumEdges(); n != 2 {
		t.Fatalf("NumEdges after double remove = %d, want 2", n)
	}
	if _, ok := g.Eta("a", "b"); ok {
		t.Error("removed edge still present")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	if !reflect.DeepEqual(g.Nodes(), c.Nodes()) {
		t.Fatalf("clone nodes %v != %v", c.Nodes(), g.Nodes())
	}
	c.RemoveEdge("a", "b")
	if _, ok := g.Eta("a", "b"); !ok {
		t.Error("removing a clone edge mutated the original")
	}
	if _, ok := c.Eta("a", "b"); ok {
		t.Error("clone edge survived removal")
	}
}

func TestScratchRunMatchesBellmanFord(t *testing.T) {
	g := buildTriangle(t)
	if err := g.AddEdge("c", "d", 0.75); err != nil {
		t.Fatal(err)
	}
	g.AddNode("island")

	var scratch BellmanFordScratch
	// Converge a different graph first so the scratch holds stale state,
	// then the real one: results must match a fresh BellmanFord exactly.
	other := NewGraph()
	if err := other.AddEdge("x", "y", 0.5); err != nil {
		t.Fatal(err)
	}
	scratch.Run(other, 0)
	got := scratch.Run(g, 0)
	want := BellmanFord(g, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scratch.Run != BellmanFord:\ngot:  %+v\nwant: %+v", got, want)
	}
	path, err := got.Path("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	wantPath, err := want.Path("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, wantPath) {
		t.Fatalf("Path(a,d) = %v, want %v", path, wantPath)
	}
	if got.Reachable("a", "island") {
		t.Error("island reachable from a")
	}
}
