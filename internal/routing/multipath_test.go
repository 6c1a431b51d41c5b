package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edgeDisjointPathsReference is the retired clone-and-delete extraction,
// kept verbatim as the reference DisjointScratch.EdgeDisjoint is pinned to.
//
// EdgeDisjointPaths returns up to k pairwise edge-disjoint paths from src
// to dst, greedily extracted in decreasing end-to-end transmissivity: each
// round runs Dijkstra on −log η, records the best path, and removes its
// edges before the next round. Fewer than k paths are returned when the
// graph runs out of disjoint routes; zero paths when dst is unreachable.
//
// Edge-disjoint multipath is the standard redundancy primitive for
// entanglement distribution: attempts on disjoint paths fail
// independently, so the combined success probability is
// 1 − Π(1 − η_path).
func edgeDisjointPathsReference(g *Graph, src, dst string, k int) ([][]string, error) {
	if k <= 0 {
		return nil, fmt.Errorf("routing: need a positive path budget, got %d", k)
	}
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil, fmt.Errorf("routing: unknown endpoint %q or %q", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("routing: src equals dst (%q)", src)
	}
	work := g.Clone()
	var paths [][]string
	for len(paths) < k {
		path, _, err := BestTransmissivityPath(work, src, dst)
		if err != nil {
			break // unreachable in the residual graph: done
		}
		paths = append(paths, path)
		for i := 0; i+1 < len(path); i++ {
			work.RemoveEdge(path[i], path[i+1])
		}
	}
	return paths, nil
}

// edgeDisjoint runs DisjointScratch.EdgeDisjoint on a fresh scratch.
func edgeDisjoint(g *Graph, src, dst string, k int) ([][]string, error) {
	var s DisjointScratch
	return s.EdgeDisjoint(g, src, dst, k)
}

func diamondGraph(t *testing.T) *Graph {
	// Two disjoint s→d routes plus a direct weak edge.
	g := NewGraph()
	mustAdd(t, g, "s", "a", 0.9)
	mustAdd(t, g, "a", "d", 0.9)
	mustAdd(t, g, "s", "b", 0.8)
	mustAdd(t, g, "b", "d", 0.8)
	mustAdd(t, g, "s", "d", 0.3)
	return g
}

func TestClone(t *testing.T) {
	g := diamondGraph(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone shape differs")
	}
	c.RemoveEdge("s", "a")
	if _, ok := g.Eta("s", "a"); !ok {
		t.Fatal("mutating the clone affected the original")
	}
}

func TestEdgeDisjointPathsDiamond(t *testing.T) {
	g := diamondGraph(t)
	paths, err := edgeDisjoint(g, "s", "d", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3", len(paths))
	}
	// Best first: via a (0.81), via b (0.64), direct (0.3).
	etas := make([]float64, len(paths))
	for i, p := range paths {
		eta, err := g.PathEta(p)
		if err != nil {
			t.Fatal(err)
		}
		etas[i] = eta
	}
	if math.Abs(etas[0]-0.81) > 1e-12 || math.Abs(etas[1]-0.64) > 1e-12 || math.Abs(etas[2]-0.3) > 1e-12 {
		t.Fatalf("path etas %v", etas)
	}
	// Pairwise edge-disjoint.
	used := map[[2]string]bool{}
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			a, b := p[i], p[i+1]
			if a > b {
				a, b = b, a
			}
			key := [2]string{a, b}
			if used[key] {
				t.Fatalf("edge %v reused across paths", key)
			}
			used[key] = true
		}
	}
}

func TestEdgeDisjointPathsBudget(t *testing.T) {
	g := diamondGraph(t)
	paths, err := edgeDisjoint(g, "s", "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("budget ignored: %d paths", len(paths))
	}
}

func TestEdgeDisjointPathsUnreachable(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, "s", "a", 0.9)
	g.AddNode("d")
	paths, err := edgeDisjoint(g, "s", "d", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("unreachable dst yielded %d paths", len(paths))
	}
}

func TestEdgeDisjointPathsRejectsBadInput(t *testing.T) {
	g := diamondGraph(t)
	if _, err := edgeDisjoint(g, "s", "d", 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := edgeDisjoint(g, "nope", "d", 1); err == nil {
		t.Fatal("unknown src accepted")
	}
	if _, err := edgeDisjoint(g, "s", "s", 1); err == nil {
		t.Fatal("src==dst accepted")
	}
}

func TestEdgeDisjointOnRandomGraphs(t *testing.T) {
	// Property: returned paths are simple, edge-disjoint, and etas
	// non-increasing.
	g := benchGraph(20)
	nodes := g.Nodes()
	src, dst := nodes[0], nodes[len(nodes)-1]
	paths, err := edgeDisjoint(g, src, dst, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	used := map[[2]string]bool{}
	for _, p := range paths {
		eta, err := g.PathEta(p)
		if err != nil {
			t.Fatal(err)
		}
		if eta > prev+1e-12 {
			t.Fatalf("path etas not non-increasing: %g after %g", eta, prev)
		}
		prev = eta
		seen := map[string]bool{}
		for i, n := range p {
			if seen[n] {
				t.Fatalf("non-simple path %v", p)
			}
			seen[n] = true
			if i+1 < len(p) {
				a, b := p[i], p[i+1]
				if a > b {
					a, b = b, a
				}
				if used[[2]string{a, b}] {
					t.Fatalf("edge reuse in %v", p)
				}
				used[[2]string{a, b}] = true
			}
		}
	}
}

// TestEdgeDisjointMatchesReference pins EdgeDisjoint reflect.DeepEqual to
// the clone-and-delete reference on tie-heavy multi-component graphs, for
// every budget k ∈ {1,2,3,4}, over random endpoint pairs (unreachable ones
// included, since components never connect) and the endpoints of direct
// edges. One scratch serves every case, and every other graph is rebuilt in
// place into the same pooled *Graph, so cost retirements leaking past a
// call would show.
func TestEdgeDisjointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var (
		s                                   DisjointScratch
		pooled                              = NewGraph()
		checked, multi, unreachable, direct int
	)
	for trial := 0; trial < 60; trial++ {
		g := pooled
		if trial%2 == 0 {
			g = NewGraph()
		}
		n := 5 + rng.Intn(40)
		buildComponentTieGraph(t, rng, g, n, 1+rng.Intn(4), 0.15+0.3*rng.Float64())
		var pairs [][2]string
		for pair := 0; pair < 8; pair++ {
			if src, dst := nodeName(rng.Intn(n)), nodeName(rng.Intn(n)); src != dst {
				pairs = append(pairs, [2]string{src, dst})
			}
		}
		for e := 0; e < 4; e++ {
			a := nodeName(rng.Intn(n))
			if nbrs := g.Neighbors(a); len(nbrs) > 0 {
				pairs = append(pairs, [2]string{a, nbrs[rng.Intn(len(nbrs))]})
				direct++
			}
		}
		for _, pair := range pairs {
			for k := 1; k <= 4; k++ {
				want, err := edgeDisjointPathsReference(g, pair[0], pair[1], k)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := s.EdgeDisjoint(g, pair[0], pair[1], k)
				if err != nil {
					t.Fatalf("EdgeDisjoint: %v", err)
				}
				if len(got) == 0 && len(want) == 0 {
					unreachable++
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v k=%d: EdgeDisjoint %v, reference %v", trial, pair, k, got, want)
				}
				if len(got) > 1 {
					multi++
				}
				checked++
			}
		}
	}
	if checked < 1000 || multi < 300 || unreachable < 100 || direct < 100 {
		t.Fatalf("exercised %d reachable cases (%d with several paths), %d unreachable, %d direct-edge pairs; generator too sparse",
			checked, multi, unreachable, direct)
	}
	t.Logf("%d reachable cases (%d with several paths), %d unreachable, %d direct-edge pairs", checked, multi, unreachable, direct)
}
