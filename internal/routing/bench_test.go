package routing

import (
	"math/rand"
	"testing"
)

// benchGraph is a random graph of QNTN snapshot size — 31 ground nodes
// plus relays — but not of its shape: randomConnectedGraph always yields a
// single component, while real SpaceGround-108 snapshots split into about
// 88 components, most of them isolated satellites. It therefore measures
// the connected worst case of Algorithm 1; BenchmarkRoutesScratch108 in
// internal/qntn converges real snapshots.
func benchGraph(relays int) *Graph {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 31+relays, 4*(31+relays))
	return g
}

func BenchmarkBellmanFordAlgorithm1_40Nodes(b *testing.B) {
	g := benchGraph(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BellmanFord(g, DefaultEpsilon)
	}
}

func BenchmarkBellmanFordAlgorithm1_139Nodes(b *testing.B) {
	g := benchGraph(108)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BellmanFord(g, DefaultEpsilon)
	}
}

func BenchmarkClassicBellmanFord139Nodes(b *testing.B) {
	g := benchGraph(108)
	cost := InverseEtaCost(DefaultEpsilon)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClassicBellmanFord(g, nodes[i%len(nodes)], cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstra139Nodes(b *testing.B) {
	g := benchGraph(108)
	cost := InverseEtaCost(DefaultEpsilon)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dijkstra(g, nodes[i%len(nodes)], cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathReconstruction(b *testing.B) {
	g := benchGraph(108)
	tables := BellmanFord(g, DefaultEpsilon)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		dst := nodes[(i*7+13)%len(nodes)]
		if _, err := tables.Path(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
