package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vector is a pure quantum state vector of dimension 2^n.
type Vector struct {
	Data []complex128
}

// NewVector returns a zero vector of the given dimension.
func NewVector(dim int) *Vector {
	return &Vector{Data: make([]complex128, dim)}
}

// Norm returns the 2-norm of v.
func (v *Vector) Norm() float64 {
	var s float64
	for _, c := range v.Data {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return math.Sqrt(s)
}

// Normalize scales v to unit norm in place and returns it. A zero vector is
// returned unchanged.
func (v *Vector) Normalize() *Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	inv := complex(1/n, 0)
	for i := range v.Data {
		v.Data[i] *= inv
	}
	return v
}

// Tensor returns the Kronecker product v ⊗ w.
func (v *Vector) Tensor(w *Vector) *Vector {
	out := NewVector(len(v.Data) * len(w.Data))
	for i, a := range v.Data {
		if a == 0 {
			continue
		}
		for j, b := range w.Data {
			out.Data[i*len(w.Data)+j] = a * b
		}
	}
	return out
}

// Density returns the density matrix |v><v|. The vector is assumed
// normalized.
func (v *Vector) Density() *Matrix {
	n := len(v.Data)
	m := NewMatrix(n)
	for i, a := range v.Data {
		if a == 0 {
			continue
		}
		for j, b := range v.Data {
			m.Data[i*n+j] = a * cmplx.Conj(b)
		}
	}
	return m
}

// InnerProduct returns <v|w>.
func (v *Vector) InnerProduct(w *Vector) complex128 {
	if len(v.Data) != len(w.Data) {
		panic(fmt.Sprintf("quantum: inner product dimension mismatch %d vs %d", len(v.Data), len(w.Data)))
	}
	var s complex128
	for i := range v.Data {
		s += cmplx.Conj(v.Data[i]) * w.Data[i]
	}
	return s
}

// Basis returns the computational basis state |index> of the given
// dimension.
func Basis(dim, index int) *Vector {
	if index < 0 || index >= dim {
		panic(fmt.Sprintf("quantum: basis index %d out of range [0,%d)", index, dim))
	}
	v := NewVector(dim)
	v.Data[index] = 1
	return v
}

// The four Bell states on two qubits. PhiPlus is the maximally entangled
// state (|00> + |11>)/sqrt(2) the paper uses as the ideal target |psi> in
// Eq. (5).
func PhiPlus() *Vector {
	v := NewVector(4)
	s := complex(1/math.Sqrt2, 0)
	v.Data[0], v.Data[3] = s, s
	return v
}

// PhiMinus returns (|00> - |11>)/sqrt(2).
func PhiMinus() *Vector {
	v := NewVector(4)
	s := complex(1/math.Sqrt2, 0)
	v.Data[0], v.Data[3] = s, -s
	return v
}

// PsiPlus returns (|01> + |10>)/sqrt(2).
func PsiPlus() *Vector {
	v := NewVector(4)
	s := complex(1/math.Sqrt2, 0)
	v.Data[1], v.Data[2] = s, s
	return v
}

// PsiMinus returns (|01> - |10>)/sqrt(2).
func PsiMinus() *Vector {
	v := NewVector(4)
	s := complex(1/math.Sqrt2, 0)
	v.Data[1], v.Data[2] = s, -s
	return v
}

// BellStates returns the four Bell states in the order PhiPlus, PhiMinus,
// PsiPlus, PsiMinus.
func BellStates() []*Vector {
	return []*Vector{PhiPlus(), PhiMinus(), PsiPlus(), PsiMinus()}
}

// WernerState returns the Werner state p|Φ+><Φ+| + (1-p) I/4, a standard
// noisy-entanglement model used in the test suite as an independent
// cross-check of the fidelity implementation (its Bell fidelity is
// p + (1-p)/4 in closed form).
func WernerState(p float64) *Matrix {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("quantum: Werner parameter %v outside [0,1]", p))
	}
	bell := PhiPlus().Density().Scale(complex(p, 0))
	mixed := Identity(4).Scale(complex((1-p)/4, 0))
	return bell.Add(mixed)
}
