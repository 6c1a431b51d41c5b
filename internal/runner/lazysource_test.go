package runner

import (
	"math"
	"math/rand"
	"testing"
)

// lazySeeds are the seeds TestLazySourceMatchesMathRand runs: the Seed
// reduction's edge cases (zero, signs, multiples of 2³¹−1 that reduce to
// the fallback seed, the int64 extremes) and a few random ones.
func lazySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max - 1, int32max + 1, -(int32max - 1),
		1 << 31, -(1 << 31), 1 << 62,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		89482311,
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// drawMixed draws n values from r through the Rand methods the traffic
// streams use, plus the Uint64 path, and returns them as bits.
func drawMixed(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		switch i % 6 {
		case 0:
			out = append(out, uint64(r.Int63()))
		case 1:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		case 2:
			out = append(out, math.Float64bits(r.Float64()))
		case 3:
			out = append(out, uint64(r.Intn(1+i%47)))
		case 4:
			out = append(out, r.Uint64())
		default:
			out = append(out, math.Float64bits(r.NormFloat64()))
		}
	}
	return out
}

// requireSameDraws fails at the first draw where got and want differ.
func requireSameDraws(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d = %#x, math/rand %#x", label, i, got[i], want[i])
		}
	}
}

// TestLazySourceMatchesMathRand: a Rand over a LazySource draws exactly
// the values of a Rand over rand.NewSource with the same seed, draw for
// draw, through more than 3,000 mixed draws — past the 607-word register's
// wrap, where every word has been built and fed back — and again after the
// used source is reseeded, to a new seed or its old one.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const draws = 3100
	seeds := lazySeeds()
	reused := rand.New(NewLazySource(0))
	for k, seed := range seeds {
		want := drawMixed(rand.New(rand.NewSource(seed)), draws)
		requireSameDraws(t, "fresh", drawMixed(rand.New(NewLazySource(seed)), draws), want)
		// The reused Rand's source was drawn from under a different seed;
		// a short partial stream leaves some words built and others not.
		reused.Seed(seed)
		requireSameDraws(t, "reseeded", drawMixed(reused, draws), want)
		reused.Seed(seeds[(k+1)%len(seeds)])
		drawMixed(reused, 1+k*37%700)
		reused.Seed(seed)
		requireSameDraws(t, "reseeded to itself", drawMixed(reused, draws), want)
	}
}

// TestLazySourceGenerationWrap: when the generation counter wraps, marks
// left from 2³² seeds ago must not pass as built.
func TestLazySourceGenerationWrap(t *testing.T) {
	s := NewLazySource(5)
	drawMixed(rand.New(s), 50)
	s.gen = math.MaxUint32 - 1
	for i := range s.built {
		s.built[i] = 1 // what a wrap to generation 1 would read as built
	}
	r := rand.New(s)
	r.Seed(7) // generation MaxUint32
	r.Seed(8) // wraps
	requireSameDraws(t, "after wrap", drawMixed(r, 1500), drawMixed(rand.New(rand.NewSource(8)), 1500))
}

// TestLazySourceSeedsLazily: seeding touches no register word, and a short
// stream builds at most the two words each draw reads.
func TestLazySourceSeedsLazily(t *testing.T) {
	s := NewLazySource(12345)
	count := func() int {
		n := 0
		for _, g := range s.built {
			if g == s.gen {
				n++
			}
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("%d words built by Seed, want 0", n)
	}
	for i := 0; i < 40; i++ {
		s.Int63()
	}
	if n := count(); n != 80 {
		t.Fatalf("%d words built by 40 draws, want 80", n)
	}
}

// TestLazySourceZeroAllocs: reseeding and drawing allocate nothing.
func TestLazySourceZeroAllocs(t *testing.T) {
	r := rand.New(NewLazySource(1))
	seed := int64(0)
	if allocs := testing.AllocsPerRun(50, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 30; i++ {
			r.ExpFloat64()
			r.Float64()
			r.Intn(29)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per reseeded stream, want 0", allocs)
	}
}

// BenchmarkSeededStream compares a reseeded math/rand source with a
// reseeded LazySource over a stream of the traffic generator's length
// (about 30 draws per site).
func BenchmarkSeededStream(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{
		{"mathrand", rand.New(rand.NewSource(1))},
		{"lazy", rand.New(NewLazySource(1))},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.r.Seed(int64(i))
				for d := 0; d < 30; d++ {
					c.r.Float64()
				}
			}
		})
	}
}
