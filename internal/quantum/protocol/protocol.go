// Package protocol implements the scalar entanglement-protocol layer the
// serving experiments compose per request: time-dependent T2 dephasing of a
// pair stored in memory while it waits for its partner, entanglement-swap
// chains over multi-hop routes with seed-derived per-swap success draws, and
// DEJMPS-style recurrence purification that spends redundant disjoint routes
// to buy fidelity.
//
// All state is Werner-twirled: a pair is summarized by its projection
// fidelity F = ⟨Φ+|ρ|Φ+⟩ ∈ [1/4, 1], the fixed point of bilateral twirling.
// Composition then has closed forms — dephasing, swapping and recurrence
// purification each map Werner parameters to Werner parameters — which is
// what keeps the per-request protocol evaluation a handful of float ops on
// the serving fast path. Each closed form is pinned (to float tolerance)
// against the exact density-matrix channels in internal/quantum:
// StoreBellPair for DephaseWerner, Swap for SwapWerner and Purify for
// PurifyWerner; see protocol_test.go.
//
// The repo-wide fidelity convention elsewhere is the root fidelity
// sqrt(⟨Φ+|ρ|Φ+⟩) (see quantum.BellFidelity). WernerFromRoot / RootFromWerner
// convert at the boundary.
//
// Everything is deterministic: success draws are pure functions of
// (Config.Seed, request identity, event index) via the splitmix64 TaskSeed
// derivation — no clocks, no shared RNG state — so runs are reproducible and
// worker-count invariant by construction.
package protocol

import (
	"fmt"
	"math"
	"time"

	"qntn/internal/runner"
)

// MinWernerFidelity is the Φ+ projection fidelity of the maximally mixed
// state — the floor of every Werner-model composition in this package.
const MinWernerFidelity = 0.25

// PurifyStream is the Draw stream index reserved for the distillation
// schedule's per-round success draws. Swap chains draw from stream = attempt
// index, which is always small, so the reserved stream never collides.
const PurifyStream = ^uint64(0)

// Config parameterizes the protocol layer. The zero value disables it
// entirely: protocol-off runs never touch this package. Config.MemoryT2 is
// the simulator's one memory model: the heralding-latency study sets it
// too, with deterministic swaps and no purification.
type Config struct {
	// MemoryT2 is the coherence time of the relay and end-node memories a
	// multi-hop pair dephases in while the chain's heralding completes.
	// Zero means ideal memories.
	MemoryT2 time.Duration
	// SwapSuccess is the per-swap Bell-state-measurement success
	// probability in (0, 1]: 0.5 models a linear-optics BSM, 1 a
	// deterministic swap. Each relay of a route performs one swap.
	SwapSuccess float64
	// PurifyPaths is the distillation budget k: each request attempts its
	// primary route plus up to k−1 further internally-vertex-disjoint
	// routes, and the surviving pairs are pumped pairwise (DEJMPS-style
	// recurrence). 0 or 1 disables purification.
	PurifyPaths int
	// Seed varies every success draw of the layer.
	Seed int64
}

// Enabled reports whether the protocol layer is configured at all.
func (c Config) Enabled() bool { return c != Config{} }

// Paths returns the effective disjoint-route budget (at least the primary).
func (c Config) Paths() int {
	if c.PurifyPaths < 1 {
		return 1
	}
	return c.PurifyPaths
}

// maxPurifyPaths bounds the per-request route-extraction work.
const maxPurifyPaths = 64

// Validate reports whether an enabled config is self-consistent. The zero
// (disabled) config is always valid.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.MemoryT2 < 0:
		return fmt.Errorf("protocol: negative memory T2")
	case c.SwapSuccess <= 0 || c.SwapSuccess > 1:
		return fmt.Errorf("protocol: swap success probability %g outside (0,1]", c.SwapSuccess)
	case c.PurifyPaths < 0 || c.PurifyPaths > maxPurifyPaths:
		return fmt.Errorf("protocol: purify path budget %d outside [0,%d]", c.PurifyPaths, maxPurifyPaths)
	}
	return nil
}

// ClampWerner forces a projection fidelity into the Werner domain
// [MinWernerFidelity, 1], mapping NaN to the floor.
func ClampWerner(f float64) float64 {
	if math.IsNaN(f) || f < MinWernerFidelity {
		return MinWernerFidelity
	}
	if f > 1 {
		return 1
	}
	return f
}

// WernerFromRoot converts a root-convention Bell fidelity (the repo-wide
// sqrt(⟨Φ+|ρ|Φ+⟩) convention of quantum.BellFidelity, in [1/2, 1] for the
// link models here) to the projection fidelity this package composes in.
func WernerFromRoot(f float64) float64 {
	return ClampWerner(f * f)
}

// RootFromWerner converts a projection fidelity back to the repo-wide root
// convention.
func RootFromWerner(w float64) float64 {
	r := math.Sqrt(ClampWerner(w))
	if math.IsNaN(r) {
		return 0.5 // unreachable after the clamp; keeps the domain explicit
	}
	return r
}

// wernerP maps a projection fidelity to the Werner mixing parameter
// p = (4F−1)/3, the weight of the Φ+ component over the maximally mixed
// background.
func wernerP(w float64) float64 { return (4*w - 1) / 3 }

// SwapWerner returns the fidelity of the pair produced by a Bell-state
// measurement connecting two Werner pairs: mixing parameters multiply,
// F_out = (1 + 3·p1·p2)/4. Monotone non-increasing in either input, with
// equality only at perfect pairs — every swap of a chain costs fidelity.
func SwapWerner(w1, w2 float64) float64 {
	p := wernerP(ClampWerner(w1)) * wernerP(ClampWerner(w2))
	return (1 + 3*p) / 4
}

// DephaseWerner applies phase damping to both halves of a Werner pair
// stored for wait in memories with coherence time t2: the Φ+ component's
// coherence decays by g = exp(−2·wait/T2) (exactly quantum.DephasingGamma's
// γ = 1−g), giving F = p·(1+g)/2 + (1−p)/4. Monotone non-increasing in
// wait, with floor (1+p)/4 ≥ 1/4. t2 ≤ 0 means ideal memories. The result
// is re-twirled to Werner form for further composition — the standard
// repeater-chain approximation, exact for the fidelity itself (asserted
// against StoreBellPair in the tests).
func DephaseWerner(w float64, wait, t2 time.Duration) float64 {
	cw := ClampWerner(w)
	if t2 <= 0 || wait <= 0 {
		return cw
	}
	g := math.Exp(-2 * wait.Seconds() / t2.Seconds())
	p := wernerP(cw)
	return p*(1+g)/2 + (1-p)/4
}

// PurifyWerner runs one DEJMPS-style recurrence round on two Werner pairs
// and returns the output fidelity and the postselection success
// probability:
//
//	F_out = (F1·F2 + (1−F1)(1−F2)/9) / D
//	D     =  F1·F2 + F1(1−F2)/3 + F2(1−F1)/3 + 5(1−F1)(1−F2)/9
//
// For equal inputs above 1/2 the round strictly improves fidelity; for
// unequal inputs the output can land BELOW the better input (e.g.
// F1 = 0.99, F2 = 0.51 → F_out ≈ 0.753), which is why the distillation
// schedule keeps max(output, banked input) rather than trusting the round.
func PurifyWerner(w1, w2 float64) (out, pSuccess float64) {
	f1, f2 := ClampWerner(w1), ClampWerner(w2)
	num := f1*f2 + (1-f1)*(1-f2)/9
	den := f1*f2 + f1*(1-f2)/3 + f2*(1-f1)/3 + 5*(1-f1)*(1-f2)/9
	if math.IsNaN(den) || den <= 0 {
		return f1, 0 // unreachable on the clamped domain; keeps the division total
	}
	return num / den, den
}

// Distill runs the greedy recurrence-pumping schedule over the Werner
// fidelities of one request's successful path attempts, which the caller
// sorts descending: the best pair is the bank; each further pair is pumped
// into it with PurifyWerner, drawing that round's postselection outcome
// from Draw(chainSeed, PurifyStream, round). An accepted round keeps
// max(output, bank) — recurrence can land below the better input for very
// unequal pairs — so under all-accepted draws the output never falls below
// the best input (the property tests pin this). A failed round destroys
// both pairs, making the next attempt the new bank; ok reports whether any
// pair survived the schedule (w is meaningless when ok is false). rounds
// and accepted count the draws taken and the ones that postselected.
//
//qntn:hotpath once per protocol-served request
func Distill(att []float64, chainSeed int64) (w float64, ok bool, rounds, accepted int) {
	if len(att) == 0 {
		return 0, false, 0, 0
	}
	result := att[0]
	valid := true
	var r uint64
	for i := 1; i < len(att); i++ {
		if !valid {
			result = att[i]
			valid = true
			continue
		}
		fOut, pOK := PurifyWerner(result, att[i])
		rounds++
		if Draw(chainSeed, PurifyStream, r) < pOK {
			accepted++
			if fOut > result {
				result = fOut
			}
		} else {
			valid = false
		}
		r++
	}
	return result, valid, rounds, accepted
}

// PairKey hashes the identity of one request attempt — endpoints, request
// ID and the evaluation instant — into the task index its draw seed derives
// from. A queued request retried at a later topology instant therefore
// redraws independently, while replays of the same instant are identical.
// The serving fast path computes the same hash allocation-free over the
// identical byte string (runner.FNV64aBytes); the equality is pinned by a
// test.
func PairKey(src, dst string, id int, atNanos int64) uint64 {
	return runner.FNV64a(fmt.Sprintf("%s|%s|%d|%d", src, dst, id, atNanos))
}

// ChainSeed derives the per-request draw seed from the layer seed and a
// PairKey.
func ChainSeed(base int64, pairKey uint64) int64 {
	return runner.TaskSeed(base, pairKey)
}

// Draw returns the uniform [0,1) variate of event (stream, index) under the
// request's chain seed: swap s of path attempt j draws Draw(seed, j, s),
// distillation round r draws Draw(seed, PurifyStream, r). Pure function —
// no RNG state — so protocol outcomes are replayable from the seed alone.
func Draw(chainSeed int64, stream, index uint64) float64 {
	return float64(uint64(runner.TaskSeed(runner.TaskSeed(chainSeed, stream), index))>>11) / (1 << 53)
}
