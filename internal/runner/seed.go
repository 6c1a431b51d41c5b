package runner

// splitmix64 constants (Steele, Lea & Flood, "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014). The golden-gamma increment is odd, so
// base + (task+1)*gamma is injective in the task index modulo 2^64, and the
// finalizer below is a bijection — together they guarantee that no two task
// indices of the same sweep ever derive the same seed.
const (
	splitmixGamma = 0x9E3779B97F4A7C15
	splitmixMulA  = 0xBF58476D1CE4E5B9
	splitmixMulB  = 0x94D049BB133111EB
)

// mix64 is the splitmix64 output finalizer: an invertible avalanche over
// the full 64-bit state.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= splitmixMulA
	z ^= z >> 27
	z *= splitmixMulB
	z ^= z >> 31
	return z
}

// TaskSeed derives the RNG seed of one sweep task from the scenario's base
// seed and the task index. The derivation is splitmix64-style: jump the
// base by (task+1) golden gammas, then avalanche. Collision-free across
// task indices for any fixed base, stable across releases (experiment
// outputs depend on it), and cheap enough to call per task.
//
// Sweep tasks must build private generators from this —
// rand.New(rand.NewSource(TaskSeed(seed, task))) — rather than sharing a
// *rand.Rand across workers, which would make results depend on
// scheduling.
func TaskSeed(base int64, task uint64) int64 {
	return int64(mix64(uint64(base) + (task+1)*splitmixGamma))
}

// FNV-1a constants (FNV-0 hash of "chongo <Landon Curt Noll> /\\../\\" and
// the 64-bit FNV prime). Inlined rather than importing hash/fnv so callers
// hashing short identifiers per task pay no allocation for the hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNV64a hashes an identifier into a task index for TaskSeed. Named
// streams — fault platforms, traffic ground sites — derive their seeds as
// TaskSeed(base, FNV64a(id)), which keeps every stream a pure function of
// (base seed, identifier): adding or removing other streams never perturbs
// it. The hash is standard FNV-1a, stable across releases (experiment
// outputs depend on it).
func FNV64a(id string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return h
}

// FNV64aBytes is FNV64a over a byte slice: identical output for identical
// bytes, but callable with a reused buffer so per-request hashing on the
// serving hot path (protocol pair keys) stays allocation-free.
func FNV64aBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}
