package routing

import "fmt"

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for i, id := range g.ids {
		c.AddNode(id)
		c.rows[i] = append(c.rows[i], g.rows[i]...)
	}
	c.edges = g.edges
	return c
}

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
func EdgeDisjointPaths(g *Graph, src, dst string, k int) ([][]string, error) {
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

// MultipathSuccessProbability returns the probability that at least one of
// the given paths delivers a pair, treating each path's end-to-end
// transmissivity as its independent success probability (valid for
// edge-disjoint paths).
func (g *Graph) MultipathSuccessProbability(paths [][]string) (float64, error) {
	failAll := 1.0
	for _, path := range paths {
		eta, err := g.PathEta(path)
		if err != nil {
			return 0, err
		}
		failAll *= 1 - eta
	}
	return 1 - failAll, nil
}
