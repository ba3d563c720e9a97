// Package zorder implements the z-order (Morton) space-filling curve used
// in Section IV-C of the paper to linearize the multi-dimensional grids of
// the intermediate LSH spaces onto [0,1], so that per-plan point
// distributions can be summarized in ordinary unidimensional database
// histograms.
//
// A Curve is configured with a dimensionality s and a per-axis bit depth;
// it maps grid cell coordinates (each in [0, 2^bits)) to a single integer
// z-value by bit interleaving, and normalizes z-values onto [0,1).
package zorder

import (
	"fmt"
	"sync"
)

// MaxTotalBits is the largest product dims*bits a Curve supports; z-values
// must fit in an int64-safe uint64.
const MaxTotalBits = 62

// Curve is a z-order curve over an s-dimensional grid with 2^bits cells per
// axis. The zero value is not usable; call New.
type Curve struct {
	dims int
	bits int
	// spread is the spreading table of every curve of dims dimensions.
	spread *[256]uint64
}

// spreads holds, per dimensionality, the table that spreads one byte of a
// coordinate onto the positions its bits take in a z-value: entry v has bit k
// of v at position k*dims. Built the first time a curve of that
// dimensionality is, and shared by every such curve.
var spreads [MaxTotalBits + 1]struct {
	once  sync.Once
	table *[256]uint64
}

// spreadFor returns the spreading table of dims dimensions.
func spreadFor(dims int) *[256]uint64 {
	sp := &spreads[dims]
	sp.once.Do(func() {
		t := new([256]uint64)
		for v := range t {
			for k := 0; k < 8; k++ {
				t[v] |= uint64(v>>k&1) << (k * dims)
			}
		}
		sp.table = t
	})
	return sp.table
}

// New returns a z-order curve for the given dimensionality and per-axis bit
// depth. It returns an error if dims or bits are non-positive or the total
// number of bits exceeds MaxTotalBits.
func New(dims, bits int) (*Curve, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("zorder: dims must be positive, got %d", dims)
	}
	if bits <= 0 {
		return nil, fmt.Errorf("zorder: bits must be positive, got %d", bits)
	}
	if dims*bits > MaxTotalBits {
		return nil, fmt.Errorf("zorder: dims*bits = %d exceeds %d", dims*bits, MaxTotalBits)
	}
	return &Curve{dims: dims, bits: bits, spread: spreadFor(dims)}, nil
}

// MustNew is like New but panics on error. Intended for static configurations.
func MustNew(dims, bits int) *Curve {
	c, err := New(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// CellsPerAxis returns the number of grid cells along each axis, 2^bits.
func (c *Curve) CellsPerAxis() uint32 { return 1 << uint(c.bits) }

// TotalCells returns the total number of grid cells, 2^(dims*bits).
func (c *Curve) TotalCells() uint64 { return 1 << uint(c.dims*c.bits) }

// Encode interleaves the bits of the cell coordinates into a single
// z-value. Coordinate i contributes its bit k to position k*dims + i, so
// the most significant interleaved bits come from the most significant
// coordinate bits of every axis — the standard Morton order. A coordinate is
// spread a byte at a time through the curve's table: byte j's bits land
// 8*j*dims positions above byte 0's.
//
// Encode panics if len(cell) != Dims() or any coordinate is out of range.
func (c *Curve) Encode(cell []uint32) uint64 {
	if len(cell) != c.dims {
		panic(fmt.Sprintf("zorder: expected %d coordinates, got %d", c.dims, len(cell)))
	}
	limit := c.CellsPerAxis()
	stride := uint(8 * c.dims)
	var z uint64
	for i, x := range cell {
		if x >= limit {
			panic(fmt.Sprintf("zorder: coordinate %d = %d out of range [0,%d)", i, x, limit))
		}
		for shift := uint(i); x != 0; x, shift = x>>8, shift+stride {
			z |= c.spread[x&0xff] << shift
		}
	}
	return z
}

// Decode is the inverse of Encode: it splits a z-value back into per-axis
// cell coordinates. Bits above dims*bits are ignored.
func (c *Curve) Decode(z uint64) []uint32 {
	cell := make([]uint32, c.dims)
	for i := 0; i < c.dims; i++ {
		var x uint32
		for k := 0; k < c.bits; k++ {
			bit := uint32(z>>uint(k*c.dims+i)) & 1
			x |= bit << uint(k)
		}
		cell[i] = x
	}
	return cell
}

// Normalize maps a z-value onto [0,1): the cell's position along the curve
// divided by the total number of cells. Together with CellWidth this places
// each grid cell at a half-open interval of the unit line.
func (c *Curve) Normalize(z uint64) float64 {
	return float64(z) / float64(c.TotalCells())
}

// Denormalize maps a position on [0,1) back to the z-value of the cell that
// covers it. Values outside [0,1) are clamped.
func (c *Curve) Denormalize(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	total := c.TotalCells()
	z := uint64(v * float64(total))
	if z >= total {
		z = total - 1
	}
	return z
}

// CellWidth returns the width of one grid cell on the normalized [0,1) line.
func (c *Curve) CellWidth() float64 { return 1 / float64(c.TotalCells()) }

// CellOf quantizes a point with coordinates in [0,1] (values outside are
// clamped) to grid cell coordinates.
func (c *Curve) CellOf(point []float64) []uint32 {
	cell := make([]uint32, c.dims)
	c.CellOfInto(cell, point)
	return cell
}

// CellOfInto is CellOf without the allocation: it quantizes point into
// cell, which must have length Dims(). It panics on length mismatches,
// like CellOf.
func (c *Curve) CellOfInto(cell []uint32, point []float64) {
	if len(point) != c.dims {
		panic(fmt.Sprintf("zorder: expected %d coordinates, got %d", c.dims, len(point)))
	}
	if len(cell) != c.dims {
		panic(fmt.Sprintf("zorder: cell buffer has %d coordinates, need %d", len(cell), c.dims))
	}
	limit := c.CellsPerAxis()
	for i, v := range point {
		if v <= 0 {
			cell[i] = 0
			continue
		}
		x := uint32(v * float64(limit))
		if x >= limit {
			x = limit - 1
		}
		cell[i] = x
	}
}

// Value maps a point in [0,1]^dims directly to its normalized z-order
// position in [0,1). This is the T_ij(x) linearization of Section IV-C.
func (c *Curve) Value(point []float64) float64 {
	return c.Normalize(c.Encode(c.CellOf(point)))
}

// ValueWith is Value using a caller-provided cell scratch buffer of length
// Dims(), so the hot predict path performs no allocation.
func (c *Curve) ValueWith(cell []uint32, point []float64) float64 {
	c.CellOfInto(cell, point)
	return c.Normalize(c.Encode(cell))
}
