package runner

import (
	"sort"
	"testing"
)

func TestTaskSeedNoCollisionsInMillionDraws(t *testing.T) {
	// The sweep-seed invariant: no two task indices of the same sweep may
	// derive the same seed. One million indices is far beyond any sweep
	// this simulator runs (the paper's largest is 18 points).
	const n = 1_000_000
	for _, base := range []int64{0, 1, -1, 42, -987654321} {
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = TaskSeed(base, uint64(i))
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		for i := 1; i < n; i++ {
			if seeds[i] == seeds[i-1] {
				t.Fatalf("base %d: duplicate derived seed %d", base, seeds[i])
			}
		}
	}
}

func TestTaskSeedDependsOnBase(t *testing.T) {
	// Different scenario seeds must yield different derived streams.
	same := 0
	for i := uint64(0); i < 128; i++ {
		if TaskSeed(1, i) == TaskSeed(2, i) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d/128 task indices collide across bases 1 and 2", same)
	}
}

func TestTaskSeedIsStable(t *testing.T) {
	// Experiment outputs depend on the derivation; freeze reference values
	// so an accidental algorithm change cannot slip through silently.
	if got, want := TaskSeed(0, 0), int64(mix64(splitmixGamma)); got != want {
		t.Fatalf("TaskSeed(0,0) = %d, want mix64(gamma) = %d", got, want)
	}
	// splitmix64's first output from seed 0 is a published reference
	// vector: mix64(gamma) must equal 0xE220A8397B1DCDAF.
	if got := uint64(TaskSeed(0, 0)); got != 0xE220A8397B1DCDAF {
		t.Fatalf("TaskSeed(0,0) = %#x, want the splitmix64 reference vector 0xE220A8397B1DCDAF", got)
	}
	if TaskSeed(9, 10) == TaskSeed(9, 11) {
		t.Fatal("adjacent task seeds equal")
	}
}

func BenchmarkTaskSeed(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += TaskSeed(1, uint64(i))
	}
	_ = sink
}
