// Package lsh implements the randomized locality-preserving geometrical
// transformations of Section IV-B of the paper, adapted from the
// locality-sensitive hashing scheme of Tao et al. for nearest-neighbor
// search.
//
// A Transform maps points from the r-dimensional plan space [0,1]^r into an
// s-dimensional intermediate space:
//
//  1. translate by (-0.5, …, -0.5) so the cube is centered at the origin;
//  2. scale by 2λ/√r so the cube becomes [-λ/√r, λ/√r]^r, whose vertices
//     lie on the sphere S of radius λ, where λ is chosen so that the volume
//     of S equals the volume of the hypercube [-1,1]^r;
//  3. stretch by √r so the points span the extent of S along each axis
//     (minimizing the shrinking effect of the transformation);
//  4. project onto s random unit vectors a_1 … a_s whose components are
//     drawn from a normal distribution;
//  5. shift each projected coordinate by a translation b_j drawn from
//     [0, 1/Δ), where Δ is the grid resolution along one axis — a much
//     smaller interval than in Tao et al., which suffices to randomize
//     bucket boundaries without violating plan choice predictability.
//
// The output coordinates are normalized onto [0,1]^s so they can be
// quantized by a fixed grid and linearized with a z-order curve. Unlike
// nearest-neighbor search, plan caching tolerates non-nearby points hashing
// to the same bucket, so the paper uses s = r at low dimensions and s < r
// when dimensionality reduction is needed (DefaultOutputDims).
package lsh

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// MaxReducedDims is the output dimensionality used for plan spaces with
// more dimensions than this (the paper's "s ≪ r when dimensionality
// reduction is necessary"). Every plan space in the paper's workload has
// r ≤ 6, where reduction is not necessary — projecting away genuine
// parameter dimensions systematically contaminates local plan purity —
// so the default keeps s = r up to 6 dimensions.
const MaxReducedDims = 6

// DefaultOutputDims returns the paper's choice of intermediate
// dimensionality for an r-dimensional plan space: s = r for low dimensions,
// s = MaxReducedDims above that.
func DefaultOutputDims(r int) int {
	if r <= MaxReducedDims {
		return r
	}
	return MaxReducedDims
}

// Transform is one randomized locality-preserving transformation. Create
// with NewTransform; the zero value is not usable. A Transform is immutable
// after construction and safe for concurrent use.
type Transform struct {
	inDims  int
	outDims int
	scale   float64     // combined steps 2–3: 2λ/√r · √r = 2λ
	proj    [][]float64 // outDims unit vectors of length inDims
	shift   []float64   // per-output-axis translation in normalized units
	extent  float64     // half-extent bound of projected coordinates
}

// NewTransform builds a transformation from r input dimensions to s output
// dimensions. gridRes is the grid resolution Δ along a single output axis,
// which bounds the random translations b_j ∈ [0, 1/Δ). The rng drives all
// randomness; callers pass deterministic sources for reproducibility.
func NewTransform(r, s, gridRes int, rng *rand.Rand) (*Transform, error) {
	if r <= 0 {
		return nil, fmt.Errorf("lsh: input dims must be positive, got %d", r)
	}
	if s <= 0 || s > r {
		return nil, fmt.Errorf("lsh: output dims must be in [1,%d], got %d", r, s)
	}
	if gridRes <= 0 {
		return nil, fmt.Errorf("lsh: grid resolution must be positive, got %d", gridRes)
	}
	if rng == nil {
		return nil, fmt.Errorf("lsh: nil rng")
	}
	lambda := geom.SphereRadiusForCube(r)
	t := &Transform{
		inDims:  r,
		outDims: s,
		// Steps 2 and 3 compose to a uniform scaling of the centered cube
		// [-0.5,0.5]^r by 2λ: first to half-width λ/√r, then stretched √r.
		scale: 2 * lambda,
		proj:  make([][]float64, s),
		shift: make([]float64, s),
		// After scaling, coordinates lie in [-λ, λ]^r, so a projection onto
		// a unit vector lies within [-λ√r, λ√r].
		extent: lambda * math.Sqrt(float64(r)),
	}
	for j := 0; j < s; j++ {
		v := make([]float64, r)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		v = geom.Normalize(v)
		if geom.Norm(v) == 0 {
			// Astronomically unlikely; fall back to an axis vector.
			v[j%r] = 1
		}
		t.proj[j] = v
		t.shift[j] = rng.Float64() / float64(gridRes)
	}
	return t, nil
}

// MustNewTransform is like NewTransform but panics on error.
func MustNewTransform(r, s, gridRes int, rng *rand.Rand) *Transform {
	t, err := NewTransform(r, s, gridRes, rng)
	if err != nil {
		panic(err)
	}
	return t
}

// Apply maps a plan space point in [0,1]^r to normalized intermediate
// coordinates in [0,1]^s. Output coordinates are clamped to [0,1]; the
// random shift can push points at the very top edge marginally past 1.
// It returns an error if len(x) != InputDims().
func (t *Transform) Apply(x []float64) ([]float64, error) {
	out := make([]float64, t.outDims)
	if err := t.ApplyInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto is Apply without the allocation: it writes the transformed
// coordinates into dst, which must have length OutputDims(). Serving paths
// pass a per-template scratch buffer here so the no-insert predict path
// allocates nothing.
func (t *Transform) ApplyInto(dst, x []float64) error {
	if len(x) != t.inDims {
		return fmt.Errorf("lsh: expected %d coordinates, got %d", t.inDims, len(x))
	}
	if len(dst) != t.outDims {
		return fmt.Errorf("lsh: destination has %d coordinates, need %d", len(dst), t.outDims)
	}
	for j := 0; j < t.outDims; j++ {
		var p float64
		for i, xi := range x {
			p += (xi - 0.5) * t.scale * t.proj[j][i]
		}
		// Normalize from [-extent, extent] to [0,1] and apply the
		// randomized sub-cell shift.
		v := (p+t.extent)/(2*t.extent) + t.shift[j]
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		dst[j] = v
	}
	return nil
}

// AxisScale returns the factor by which a plan-space displacement bounds
// its projection along any single output axis: a ball of radius d around x
// maps inside the box of half-width d*AxisScale() around Apply(x).
func (t *Transform) AxisScale() float64 {
	return t.scale / (2 * t.extent)
}

// DistanceScale returns the factor by which Euclidean distances in the plan
// space are (at most) scaled when mapped through Apply: a plan-space
// distance d corresponds to an intermediate-space distance of at most
// d * DistanceScale(). Projections onto unit vectors never expand
// distances, so the bound comes from the cube scaling and normalization.
func (t *Transform) DistanceScale() float64 {
	return t.scale / (2 * t.extent) * math.Sqrt(float64(t.outDims))
}

// Ensemble is the set of t randomized transformations applied to one query
// template's plan space (the spaces I_1 … I_t of Section IV-B).
type Ensemble struct {
	transforms []*Transform
}

// NewEnsemble creates count independent transformations sharing the
// configuration, seeded from rng.
func NewEnsemble(count, r, s, gridRes int, rng *rand.Rand) (*Ensemble, error) {
	if count <= 0 {
		return nil, fmt.Errorf("lsh: transform count must be positive, got %d", count)
	}
	e := &Ensemble{transforms: make([]*Transform, count)}
	for i := range e.transforms {
		tr, err := NewTransform(r, s, gridRes, rng)
		if err != nil {
			return nil, err
		}
		e.transforms[i] = tr
	}
	return e, nil
}

// Size returns the number of transformations in the ensemble.
func (e *Ensemble) Size() int { return len(e.transforms) }

// Transform returns the i-th transformation.
func (e *Ensemble) Transform(i int) *Transform { return e.transforms[i] }

// Apply maps a plan space point through every transformation, returning
// one intermediate point per transformation. It returns an error if
// len(x) does not match the transforms' input dimensionality.
func (e *Ensemble) Apply(x []float64) ([][]float64, error) {
	out := make([][]float64, len(e.transforms))
	for i, tr := range e.transforms {
		p, err := tr.Apply(x)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// ApplyInto is Apply without the allocations: dst must hold one slice per
// transformation, each of length OutputDims().
func (e *Ensemble) ApplyInto(dst [][]float64, x []float64) error {
	if len(dst) != len(e.transforms) {
		return fmt.Errorf("lsh: destination has %d rows, need %d", len(dst), len(e.transforms))
	}
	for i, tr := range e.transforms {
		if err := tr.ApplyInto(dst[i], x); err != nil {
			return err
		}
	}
	return nil
}
