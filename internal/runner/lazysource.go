package runner

// The shape of math/rand's rngSource (an additive lagged Fibonacci
// generator by Mitchell and Reeds): a 607-word feedback register read at a
// tap 273 words behind the feed.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = (1 << 31) - 1
	// seedMul is the multiplier of the Lehmer generator that math/rand's
	// Seed runs to fill the register: x[n+1] = 48271·x[n] mod (2³¹−1).
	seedMul = 48271
)

// seedPowers[i] holds 48271ⁿ mod (2³¹−1) for the three Lehmer steps
// n = 20+3i+1, 20+3i+2, 20+3i+3 that math/rand's Seed spends on register
// word i after its 20 warm-up steps.
var seedPowers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for n := 1; n <= 20; n++ {
		x = x * seedMul % int32max
	}
	for i := range p {
		for k := range p[i] {
			x = x * seedMul % int32max
			p[i][k] = x
		}
	}
	return p
}()

// LazySource is math/rand's default Source, rngSource, with its seeding
// deferred word by word: rand.New(NewLazySource(seed)) draws exactly the
// values of rand.New(rand.NewSource(seed)), Int63 for Int63 and Uint64 for
// Uint64, through every Rand method, reseeding included.
//
// rngSource.Seed fills all 607 register words by running the Lehmer
// generator 1,841 steps, which costs far more than a stream of a few dozen
// draws. Here Seed only stores the reduced seed x₀ and starts a new
// generation; word i is built the first time a draw reads it, from
// x₀·48271ⁿ mod (2³¹−1) at its three steps n (seedPowers) XORed with
// rngCooked[i], which is the value rngSource.Seed would have left there.
// A draw reads two words, so a stream of d < 607 draws builds at most 2d.
//
// The zero value is not seeded: call Seed, or use NewLazySource. A
// LazySource must not be shared between goroutines.
type LazySource struct {
	tap, feed int
	x0        uint64 // the seed reduced to [1, 2³¹−2], as rngSource.Seed does
	gen       uint32 // bumped by every Seed
	// built[i] == gen once vec[i] holds its value for the current seed.
	built [rngLen]uint32
	vec   [rngLen]int64
}

// NewLazySource returns a LazySource seeded with seed.
func NewLazySource(seed int64) *LazySource {
	s := new(LazySource)
	s.Seed(seed)
	return s
}

// Seed puts the source in the state rand.NewSource(seed) starts in. It
// touches none of the register.
//
//qntn:hotpath once per seeded stream
func (s *LazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// After 2³² reseeds a stale mark could match the new generation.
		clear(s.built[:])
		s.gen = 1
	}
}

// word returns register word i, building it on its first read since Seed.
//
//qntn:hotpath twice per draw
func (s *LazySource) word(i int) int64 {
	if s.built[i] == s.gen {
		return s.vec[i]
	}
	p := &seedPowers[i]
	u := int64(s.x0*p[0]%int32max) << 40
	u ^= int64(s.x0*p[1]%int32max) << 20
	u ^= int64(s.x0 * p[2] % int32max)
	u ^= rngCooked[i]
	s.vec[i] = u
	s.built[i] = s.gen
	return u
}

// Uint64 returns a pseudo-random 64-bit value, rngSource's next output.
//
//qntn:hotpath once per draw
func (s *LazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
//
//qntn:hotpath once per draw
func (s *LazySource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
