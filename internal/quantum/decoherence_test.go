package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPhaseDampingTracePreserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gamma := rng.Float64()
		pd, err := PhaseDamping(gamma)
		if err != nil {
			return false
		}
		if !pd.IsTracePreserving(1e-12) {
			return false
		}
		rho := randomDensity(rng, 1)
		out := pd.Apply(rho)
		return almostEq(real(out.Trace()), 1, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseDampingPreservesPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rho := randomDensity(rng, 1)
	pd, err := PhaseDamping(0.7)
	if err != nil {
		t.Fatal(err)
	}
	out := pd.Apply(rho)
	if !almostEq(real(out.At(0, 0)), real(rho.At(0, 0)), 1e-12) ||
		!almostEq(real(out.At(1, 1)), real(rho.At(1, 1)), 1e-12) {
		t.Fatal("phase damping changed populations")
	}
	// Coherence scales by sqrt(1-γ).
	want := rho.At(0, 1) * complex(math.Sqrt(0.3), 0)
	if d := out.At(0, 1) - want; math.Abs(real(d))+math.Abs(imag(d)) > 1e-12 {
		t.Fatalf("coherence scaling wrong: %v vs %v", out.At(0, 1), want)
	}
}

func TestPhaseDampingRange(t *testing.T) {
	for _, g := range []float64{-0.1, 1.2, math.NaN()} {
		if _, err := PhaseDamping(g); err == nil {
			t.Errorf("gamma=%v accepted", g)
		}
	}
	if _, err := PhaseDamping(1 + 1e-12); err != nil {
		t.Error("tiny overshoot should be tolerated")
	}
}

func TestDephasingGamma(t *testing.T) {
	if DephasingGamma(time.Second, 0) != 0 {
		t.Error("ideal memory should give zero gamma")
	}
	if DephasingGamma(0, time.Second) != 0 {
		t.Error("zero storage should give zero gamma")
	}
	// γ = 1 - exp(-2t/T2): at t = T2, γ = 1 - e⁻².
	g := DephasingGamma(time.Second, time.Second)
	if !almostEq(g, 1-math.Exp(-2), 1e-12) {
		t.Fatalf("gamma at t=T2: %g", g)
	}
	// Monotone in storage time.
	prev := -1.0
	for ms := 1; ms <= 1000; ms *= 10 {
		g := DephasingGamma(time.Duration(ms)*time.Millisecond, 100*time.Millisecond)
		if g <= prev {
			t.Fatal("gamma not monotone")
		}
		prev = g
	}
}

func TestStoreBellPairIdealIsIdentity(t *testing.T) {
	rho, err := DistributeBellPair(0.8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := StoreBellPair(rho, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAbsDiff(rho) > 1e-12 {
		t.Fatal("ideal memory changed the state")
	}
}

func TestStoreBellPairDecoheres(t *testing.T) {
	rho := PhiPlus().Density()
	out, err := StoreBellPair(rho, 50*time.Millisecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fBefore := BellFidelity(rho)
	fAfter := BellFidelity(out)
	if fAfter >= fBefore {
		t.Fatalf("storage did not decohere: %g -> %g", fBefore, fAfter)
	}
	// Closed form: coherence retention λ = exp(-t/T2) per qubit; for a
	// perfect Bell pair F² = (1 + λ²)/2.
	lambda := math.Exp(-0.5)
	want := math.Sqrt((1 + lambda*lambda) / 2)
	if !almostEq(fAfter, want, 1e-9) {
		t.Fatalf("dephased Bell fidelity %g, closed form %g", fAfter, want)
	}
	// Trace preserved and Hermitian.
	if !almostEq(real(out.Trace()), 1, 1e-10) || !out.IsHermitian(1e-10) {
		t.Fatal("stored state not a density matrix")
	}
}

func TestStoreBellPairRejectsWrongDim(t *testing.T) {
	if _, err := StoreBellPair(Identity(2), time.Second, time.Second); err == nil {
		t.Fatal("expected dimension error")
	}
}
