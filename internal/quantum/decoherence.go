package quantum

import (
	"fmt"
	"math"
	"time"
)

// PhaseDamping returns the single-qubit phase-damping (dephasing) channel
// with damping parameter gamma ∈ [0,1]:
//
//	K0 = [[1, 0], [0, sqrt(1-γ)]]
//	K1 = [[0, 0], [0, sqrt(γ)]]
//
// Populations are untouched; coherences scale by sqrt(1-γ).
func PhaseDamping(gamma float64) (*Channel, error) {
	const slack = 1e-9
	if gamma < -slack || gamma > 1+slack || math.IsNaN(gamma) {
		return nil, fmt.Errorf("quantum: phase damping parameter %v outside [0,1]", gamma)
	}
	if gamma < 0 {
		gamma = 0
	} else if gamma > 1 {
		gamma = 1
	}
	k0 := NewMatrix(2)
	k0.Set(0, 0, 1)
	k0.Set(1, 1, complex(math.Sqrt(1-gamma), 0))
	k1 := NewMatrix(2)
	k1.Set(1, 1, complex(math.Sqrt(gamma), 0))
	return &Channel{Name: fmt.Sprintf("phase-damping(γ=%.4f)", gamma), Kraus: []*Matrix{k0, k1}}, nil
}

// DephasingGamma converts a storage time and a memory coherence time T2
// into the phase-damping parameter: coherences decay as exp(-t/T2), so
// γ = 1 - exp(-2 t / T2). A zero or negative T2 means an ideal memory
// (γ = 0).
func DephasingGamma(storage, t2 time.Duration) float64 {
	if t2 <= 0 || storage <= 0 {
		return 0
	}
	r := math.Exp(-storage.Seconds() / t2.Seconds())
	return 1 - r*r
}

// StoreBellPair applies phase damping to both qubits of a two-qubit state,
// modeling a pair held in quantum memories for the given storage time — the
// wait for classical heralding that time-aware serving accounts for.
func StoreBellPair(rho *Matrix, storage, t2 time.Duration) (*Matrix, error) {
	if rho.N != 4 {
		return nil, fmt.Errorf("quantum: StoreBellPair requires a 2-qubit state, got dim %d", rho.N)
	}
	gamma := DephasingGamma(storage, t2)
	if gamma == 0 {
		return rho.Clone(), nil
	}
	pd, err := PhaseDamping(gamma)
	if err != nil {
		return nil, err
	}
	out := pd.OnQubit(0, 2).Apply(rho)
	return pd.OnQubit(1, 2).Apply(out), nil
}
