package qntn

import "qntn/internal/geo"

// This file implements the ECEF uniform grid behind candidate-pair
// generation. The cell edge is at least the maximum usable FSO range, so two
// nodes that can possibly link differ by at most one cell along each axis
// and the 3×3×3 neighborhood around a node's cell is a conservative
// superset of its in-range partners.
//
// A build touches only the cells its nodes occupy: each cell carries the
// generation of the last build that put a node in it, and a cell whose
// stamp is stale is empty. The build counts the nodes per stamped cell,
// lays the cells' runs out back to back in the order the cells were first
// seen, and places the nodes. A neighborhood scan reads the runs of the
// stamped cells among its twenty-seven and skips the rest, so neither the
// build nor a scan costs O(dim³).
//
// Determinism: nodes are placed into their cell's run in ascending index
// order, and the per-node gather sorts its candidates ascending before
// emission, so the packed candidate list is ascending — exactly the order
// the dense "for i { for j := i+1 }" loop visits pairs. The equivalence
// suite asserts the resulting graphs byte-identical to the dense scan.

// spatialIndexMinNodes is the node count below which the index is skipped:
// the dense n² scan on small scenarios is cheaper than building the grid.
const spatialIndexMinNodes = 48

// pairGridMaxDim caps the grid resolution per axis. The per-cell run table
// holds dim³ entries, allocated and cleared once per evaluator (and on the
// rare generation wrap-around), never per step; the cap bounds it at
// ~384 KiB. Enlarging cells beyond the range bound is always safe (the
// neighborhood stays a superset), just less selective.
const pairGridMaxDim = 32

// cellGeom is a grid's geometry: originM is the universe's minimum corner
// along each axis, invCell is 1/cellM with cellM the effective cell edge in
// meters, and dim the cells per axis. A scenario's node table holds the
// step grid's geometry, computed once at assembly.
type cellGeom struct {
	originM float64
	invCell float64
	dim     int32
}

// pairGrid is a uniform ECEF grid over the scenario's node universe. The
// geometry is configured once per grid; the per-step build reuses every
// backing array, so steady-state rebuilds allocate nothing.
type pairGrid struct {
	// ok reports whether the grid is configured.
	ok bool
	cellGeom
	// cell holds each node's flattened cell index for the current step.
	cell []int32
	// run is the per-cell bucket run, valid for the current build only
	// where its stamp equals gen; seen lists the cells the current build
	// stamped, in first-seen order; bucket holds the runs back to back.
	run    []cellRun
	gen    uint32
	seen   []int32
	bucket []int32
}

// cellRun is one cell's slice bucket[start:end] of the current build, or
// an empty cell when gen is not the grid's current generation.
type cellRun struct {
	gen        uint32
	start, end int32
}

// newCellGeom returns the geometry of a universe of half-extent
// maxNormM + cell and a minimum cell edge of rangeM. The relative margin
// absorbs float rounding in the axis computation (it dwarfs the 1e-9
// margins already inside the range bounds), and the cap on dim only ever
// enlarges cells, which keeps the neighborhood a superset.
func newCellGeom(rangeM, maxNormM float64) cellGeom {
	cellM := rangeM*(1+1e-6) + 1.0
	half := maxNormM + cellM
	dim := int32(2 * half / cellM)
	if dim < 1 {
		dim = 1
	}
	if dim > pairGridMaxDim {
		dim = pairGridMaxDim
	}
	// Effective cell edge 2·half/dim ≥ cellM because dim ≤ 2·half/cellM.
	return cellGeom{originM: -half, invCell: float64(dim) / (2 * half), dim: dim}
}

// configure sets the grid geometry to newCellGeom(rangeM, maxNormM).
func (g *pairGrid) configure(rangeM, maxNormM float64) {
	g.install(newCellGeom(rangeM, maxNormM))
}

// install sets the grid geometry and sizes the run table for it.
func (g *pairGrid) install(geom cellGeom) {
	g.cellGeom = geom
	// Stamps of a previous geometry would alias this one's cells.
	g.run = grow(g.run, int(geom.dim)*int(geom.dim)*int(geom.dim))
	clear(g.run)
	g.gen = 0
	g.ok = true
}

// axis maps one ECEF coordinate to its cell coordinate, clamped into
// [0, dim-1]. Clamping happens in float space before the int conversion
// (out-of-range float→int conversion is implementation-defined in Go), and
// is NaN-safe. Clamping is monotone, so it never increases the cell-
// coordinate difference of a pair: positions outside the configured
// universe still land in a conservative neighborhood.
//
//qntn:hotpath
func (g *cellGeom) axis(x float64) int32 {
	u := (x - g.originM) * g.invCell
	if !(u >= 0) {
		return 0
	}
	if max := float64(g.dim - 1); u > max {
		u = max
	}
	return int32(u)
}

// cellIndex flattens a position's cell coordinates x-fastest.
//
//qntn:hotpath
func (g *cellGeom) cellIndex(p geo.Vec3) int32 {
	cx := g.axis(p.X)
	cy := g.axis(p.Y)
	cz := g.axis(p.Z)
	return (cz*g.dim+cy)*g.dim + cx
}

// beginBuild prepares the per-node cell array for n nodes. The caller fills
// cell[0:n] and then calls finishBuild.
//
//qntn:hotpath
func (g *pairGrid) beginBuild(n int) {
	//qntn:coldpath amortized growth: capacity is stable across steps
	g.cell = grow(g.cell, n)
}

// finishBuild buckets nodes lo..n-1 by cell[lo:n] in O(n-lo): it stamps and
// counts the occupied cells, lays their runs out in first-seen order, and
// places the nodes in ascending index order, so each run is ascending.
// Nodes below lo keep their cell for their own neighborhood scans but are
// in no bucket, so no scan finds them.
//
//qntn:hotpath
func (g *pairGrid) finishBuild(lo, n int) {
	g.gen++
	if g.gen == 0 {
		// Wrapped: a stamp left from 2³² builds ago would read as current.
		clear(g.run)
		g.gen = 1
	}
	gen := g.gen
	//qntn:coldpath amortized growth: capacity is stable across steps
	g.seen = grow(g.seen, n)
	k := 0
	for _, c := range g.cell[lo:n] {
		r := &g.run[c]
		if r.gen != gen {
			r.gen = gen
			r.end = 0
			g.seen[k] = c
			k++
		}
		r.end++ // count for now; the layout pass turns it into the cursor
	}
	off := int32(0)
	for _, c := range g.seen[:k] {
		r := &g.run[c]
		r.start = off
		off += r.end
		r.end = r.start
	}
	//qntn:coldpath amortized growth: capacity is stable across steps
	g.bucket = grow(g.bucket, n)
	for i := lo; i < n; i++ {
		r := &g.run[g.cell[i]]
		g.bucket[r.end] = int32(i)
		r.end++
	}
}

// neighborsAfter appends to dst every bucketed node j > i in the 3×3×3 cell
// neighborhood of node i's cell and returns the extended slice. Only cells
// the current build stamped are read. Appended order is bucket order, not
// ascending — callers sort before emission.
//
//qntn:hotpath
func (g *pairGrid) neighborsAfter(i int32, dst []int32) []int32 {
	dim := g.dim
	c := g.cell[i]
	cx := c % dim
	cy := (c / dim) % dim
	cz := c / (dim * dim)
	x0, x1 := cx-1, cx+1
	if x0 < 0 {
		x0 = 0
	}
	if x1 > dim-1 {
		x1 = dim - 1
	}
	y0, y1 := cy-1, cy+1
	if y0 < 0 {
		y0 = 0
	}
	if y1 > dim-1 {
		y1 = dim - 1
	}
	z0, z1 := cz-1, cz+1
	if z0 < 0 {
		z0 = 0
	}
	if z1 > dim-1 {
		z1 = dim - 1
	}
	gen := g.gen
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			row := (z*dim + y) * dim
			for c := row + x0; c <= row+x1; c++ {
				r := &g.run[c]
				if r.gen != gen {
					continue
				}
				for _, j := range g.bucket[r.start:r.end] {
					if j > i {
						//qntn:coldpath amortized growth: scratch capacity is stable
						dst = append(dst, j)
					}
				}
			}
		}
	}
	return dst
}

// adjacent reports whether cell b lies in the 3×3×3 neighborhood of cell
// a, i.e. whether neighborsAfter's scan from a node in cell a visits the
// nodes of cell b. Every cell coordinate is already within [0, dim-1], so
// the scan's clamping never excludes a cell one step away.
//
//qntn:hotpath
func (g *pairGrid) adjacent(a, b int32) bool {
	dim := g.dim
	return near(a%dim, b%dim) && near((a/dim)%dim, (b/dim)%dim) && near(a/(dim*dim), b/(dim*dim))
}

// near reports whether two cell coordinates differ by at most one.
//
//qntn:hotpath
func near(x, y int32) bool { return x-y <= 1 && y-x <= 1 }

// insertionSortI32 sorts s ascending in place without allocating. Candidate
// gathers are small (tens of entries), where insertion sort beats the
// allocation and indirection of sort.Slice.
//
//qntn:hotpath
func insertionSortI32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
