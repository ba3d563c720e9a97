// Package geom provides the small amount of computational geometry the
// parametric plan caching (PPC) framework needs: fixed-dimension vectors
// over [0,1]^r, Euclidean metrics, hypersphere volumes, and the sphere
// radius λ used by the locality-sensitive transformations of Section IV-B
// of the paper.
//
// All vectors are plain []float64 slices; functions never retain or mutate
// their arguments.
package geom

import (
	"fmt"
	"math"
)

// Vector is an r-dimensional point. Plan space points live in [0,1]^r but
// intermediate LSH spaces use unrestricted coordinates.
type Vector = []float64

// Dist returns the Euclidean distance between a and b.
// It panics if the dimensions differ.
func Dist(a, b Vector) float64 {
	return math.Sqrt(DistSq(a, b))
}

// DistSq returns the squared Euclidean distance between a and b.
// It panics if the dimensions differ.
func DistSq(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize returns v scaled to unit norm. A zero vector is returned
// unchanged (as a fresh copy).
func Normalize(v Vector) Vector {
	n := Norm(v)
	out := make(Vector, len(v))
	if n == 0 {
		copy(out, v)
		return out
	}
	for i, x := range v {
		out[i] = x / n
	}
	return out
}

// Add returns a+b as a new vector. It panics if the dimensions differ.
func Add(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Scale returns v*k as a new vector.
func Scale(v Vector, k float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// Clone returns a fresh copy of v.
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Mean returns the component-wise mean of the given vectors.
// It panics if vs is empty or dimensions differ.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("geom: Mean of empty set")
	}
	out := make(Vector, len(vs[0]))
	for _, v := range vs {
		if len(v) != len(out) {
			panic("geom: dimension mismatch in Mean")
		}
		for i, x := range v {
			out[i] += x
		}
	}
	k := float64(len(vs))
	for i := range out {
		out[i] /= k
	}
	return out
}

// UnitBallVolume returns the volume of the r-dimensional Euclidean unit
// ball, V_r(1) = π^(r/2) / Γ(r/2 + 1).
func UnitBallVolume(r int) float64 {
	if r < 0 {
		panic("geom: negative dimension")
	}
	if r == 0 {
		return 1
	}
	return math.Pow(math.Pi, float64(r)/2) / math.Gamma(float64(r)/2+1)
}

// BallVolume returns the volume of an r-dimensional ball of radius d.
func BallVolume(r int, d float64) float64 {
	return UnitBallVolume(r) * math.Pow(d, float64(r))
}

// SphereRadiusForCube returns the radius λ of the r-dimensional hypersphere
// whose volume equals the volume of the hypercube [-1,1]^r (volume 2^r).
// This is the λ of Section IV-B used to scale plan space points before the
// randomized locality-preserving transformations.
func SphereRadiusForCube(r int) float64 {
	if r <= 0 {
		panic("geom: dimension must be positive")
	}
	// V_r(λ) = V_r(1) · λ^r = 2^r  ⇒  λ = 2 / V_r(1)^(1/r).
	return 2 / math.Pow(UnitBallVolume(r), 1/float64(r))
}
