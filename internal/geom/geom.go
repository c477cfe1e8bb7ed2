// Package geom provides the 2-D computational-geometry kernel behind the
// Delaunay mesh generation (DMG) and refinement (DMR) applications of the
// paper's evaluation: points, orientation and in-circumcircle predicates,
// and an incremental Bowyer–Watson triangulator with full edge adjacency.
//
// Point location is jump-and-walk (Mücke, Saias & Zhu, SoCG 1996): a mesh
// sized for n points keeps a bucket grid over its box, about four points
// per cell, that remembers the last triangle created in each cell, and a
// walk starts there, next to the point, instead of at the last insert.
// The start never changes which triangles an insert makes: a point off
// every edge lies in one triangle only, which the walk reaches from any
// start, and the mesh is the same slot for slot. A point on an edge lies
// in both triangles beside it; the cavity, and so the triangle set, is the
// same from either, and only the order of the slots can differ.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Dist2 returns the squared distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Orient2D returns a positive value when a, b, c wind counter-clockwise,
// negative when clockwise, and ~0 when collinear.
func Orient2D(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// InCircumcircle reports whether p lies strictly inside the circumcircle
// of the counter-clockwise triangle (a, b, c).
func InCircumcircle(a, b, c, p Point) bool {
	ax, ay := a.X-p.X, a.Y-p.Y
	bx, by := b.X-p.X, b.Y-p.Y
	cx, cy := c.X-p.X, c.Y-p.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 0
}

// Circumcenter returns the circumcenter of triangle (a, b, c). The second
// result is false for (near-)degenerate triangles.
func Circumcenter(a, b, c Point) (Point, bool) {
	d := 2 * ((a.X-c.X)*(b.Y-c.Y) - (b.X-c.X)*(a.Y-c.Y))
	if math.Abs(d) < 1e-12 {
		return Point{}, false
	}
	a2 := a.X*a.X + a.Y*a.Y
	b2 := b.X*b.X + b.Y*b.Y
	c2 := c.X*c.X + c.Y*c.Y
	ux := ((a2-c2)*(b.Y-c.Y) - (b2-c2)*(a.Y-c.Y)) / d
	uy := ((b2-c2)*(a.X-c.X) - (a2-c2)*(b.X-c.X)) / d
	return Point{ux, uy}, true
}

// MinAngleDeg returns the smallest interior angle of triangle (a, b, c)
// in degrees.
func MinAngleDeg(a, b, c Point) float64 {
	la := math.Sqrt(b.Dist2(c)) // side opposite a
	lb := math.Sqrt(a.Dist2(c))
	lc := math.Sqrt(a.Dist2(b))
	angle := func(opp, s1, s2 float64) float64 {
		if s1 == 0 || s2 == 0 {
			return 0
		}
		cos := (s1*s1 + s2*s2 - opp*opp) / (2 * s1 * s2)
		if cos > 1 {
			cos = 1
		}
		if cos < -1 {
			cos = -1
		}
		return math.Acos(cos) * 180 / math.Pi
	}
	return math.Min(angle(la, lb, lc), math.Min(angle(lb, la, lc), angle(lc, la, lb)))
}

// Tri is one triangle of a Mesh: vertex indices in counter-clockwise
// order and, per edge i (from V[i] to V[(i+1)%3]), the index of the
// neighbouring triangle across that edge (-1 on the hull).
type Tri struct {
	V     [3]int
	N     [3]int
	Alive bool
}

// Mesh is an incrementally built Delaunay triangulation. Vertices 0–2 are
// the super-triangle enclosing the domain; Insert adds points one at a
// time via the Bowyer–Watson cavity algorithm.
type Mesh struct {
	Pts  []Point
	Tris []Tri
	free []int // indices of dead triangle slots for reuse
	hint int   // last triangle created: the walk's start when no grid cell gives one

	// InsertSteps accumulates the number of cavity triangles processed
	// across all inserts — the app layer uses it as a work-unit measure.
	InsertSteps int

	// The jump-and-walk grid: gx × gy cells over the box from (x0, y0),
	// sx and sy cells per unit, each holding the last triangle created
	// by an insert of a point in it, or -1. Nil in a mesh sized for 0.
	grid   []int
	gx, gy int
	x0, y0 float64
	sx, sy float64

	// Insert's scratch, reused across calls so an insert neither hashes
	// nor allocates. Slot t is in the current cavity exactly when
	// mark[t] == epoch; epoch is never 0, and every stamp is cleared when
	// it wraps, so a stale stamp never matches. from[v] and to[v] index
	// the boundary edge that starts and that ends at vertex v; an entry
	// left by an earlier insert is told apart by that edge's vertex.
	mark     []uint32
	epoch    uint32
	stack    []int
	cavity   []int
	boundary []bEdge
	from, to []int32
	created  []int
}

// bEdge is a directed cavity-boundary edge (a -> b) with the triangle
// outside the cavity across it (-1 on the hull).
type bEdge struct {
	a, b    int
	outside int
}

// NewMesh creates a mesh whose super-triangle comfortably encloses the
// axis-aligned box (minX, minY)–(maxX, maxY), sized for n inserts: its
// points, its 2n+1 triangles and Insert's scratch are allocated once, and
// a grid of about n/4 cells over the box starts each walk near its point.
// A mesh sized for 0 has no grid and grows as it goes.
func NewMesh(minX, minY, maxX, maxY float64, n int) *Mesh {
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	cx, cy := (minX+maxX)/2, (minY+maxY)/2
	r := 3 * math.Max(w, h)
	m := &Mesh{
		Pts:  append(make([]Point, 0, n+3), Point{cx - 2*r, cy - r}, Point{cx + 2*r, cy - r}, Point{cx, cy + 2*r}),
		Tris: append(make([]Tri, 0, 2*n+1), Tri{V: [3]int{0, 1, 2}, N: [3]int{-1, -1, -1}, Alive: true}),
		mark: make([]uint32, 2*n+1),
		from: make([]int32, n+3),
		to:   make([]int32, n+3),
	}
	if cells := (n + 3) / 4; n > 0 {
		m.gx = min(max(int(math.Sqrt(float64(cells)*w/h)), 1), cells)
		m.gy = (cells + m.gx - 1) / m.gx
		m.x0, m.y0 = minX, minY
		m.sx, m.sy = float64(m.gx)/w, float64(m.gy)/h
		m.grid = make([]int, m.gx*m.gy)
		for i := range m.grid {
			m.grid[i] = -1
		}
	}
	return m
}

// cell returns p's grid cell; a point off the box falls in the cell on
// its rim nearest to it.
func (m *Mesh) cell(p Point) int {
	return gridIndex((p.X-m.x0)*m.sx, m.gx) + m.gx*gridIndex((p.Y-m.y0)*m.sy, m.gy)
}

// gridIndex clamps grid coordinate f to a cell in [0, n).
func gridIndex(f float64, n int) int {
	if !(f > 0) { // NaN too
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// NumAlive returns the number of live triangles.
func (m *Mesh) NumAlive() int {
	n := 0
	for i := range m.Tris {
		if m.Tris[i].Alive {
			n++
		}
	}
	return n
}

// IsSuperVertex reports whether vertex v belongs to the super-triangle.
func (m *Mesh) IsSuperVertex(v int) bool { return v < 3 }

// HasSuperVertex reports whether triangle t touches the super-triangle.
func (m *Mesh) HasSuperVertex(t int) bool {
	tri := &m.Tris[t]
	return m.IsSuperVertex(tri.V[0]) || m.IsSuperVertex(tri.V[1]) || m.IsSuperVertex(tri.V[2])
}

// contains reports whether point p lies inside or on triangle t.
func (m *Mesh) contains(t int, p Point) bool {
	tri := &m.Tris[t]
	const eps = 1e-12
	for i := 0; i < 3; i++ {
		a, b := m.Pts[tri.V[i]], m.Pts[tri.V[(i+1)%3]]
		if Orient2D(a, b, p) < -eps {
			return false
		}
	}
	return true
}

// Locate returns a live triangle containing p by jump-and-walk: the walk
// starts at the last triangle created in p's grid cell when that one is
// still alive, and at the last insert's otherwise, then steps across the
// first edge that has p on its far side. The start can move the result
// only for a point on an edge or a vertex, between the triangles that
// share it, never to a triangle without p. It falls back to a linear scan
// if the walk cycles (possible with near-degenerate geometry). Returns -1
// if p is outside every triangle (outside the super-triangle).
func (m *Mesh) Locate(p Point) int {
	t := m.hint
	if m.grid != nil {
		if g := m.grid[m.cell(p)]; g >= 0 && m.Tris[g].Alive {
			t = g
		}
	}
	return m.walk(t, p)
}

// walk returns a live triangle containing p, walking from triangle t.
func (m *Mesh) walk(t int, p Point) int {
	if t < 0 || t >= len(m.Tris) || !m.Tris[t].Alive {
		t = m.anyAlive()
		if t < 0 {
			return -1
		}
	}
	maxSteps := 4 * (len(m.Tris) + 16)
	for step := 0; step < maxSteps; step++ {
		tri := &m.Tris[t]
		next := -1
		for i := 0; i < 3; i++ {
			a, b := m.Pts[tri.V[i]], m.Pts[tri.V[(i+1)%3]]
			if Orient2D(a, b, p) < 0 {
				next = tri.N[i]
				break
			}
		}
		if next == -1 {
			if m.contains(t, p) {
				return t
			}
			break // hull reached without containing: outside
		}
		t = next
	}
	// Robust fallback.
	for i := range m.Tris {
		if m.Tris[i].Alive && m.contains(i, p) {
			return i
		}
	}
	return -1
}

func (m *Mesh) anyAlive() int {
	for i := range m.Tris {
		if m.Tris[i].Alive {
			return i
		}
	}
	return -1
}

// Insert adds point p to the triangulation, returning the indices of the
// newly created triangles in a slice the mesh reuses: it is valid until the
// next insert on the mesh. It returns an error when p falls outside the
// super-triangle or coincides with an existing vertex.
func (m *Mesh) Insert(p Point) ([]int, error) {
	return m.insert(m.Locate(p), p)
}

// InsertFrom is Insert with the walk started at triangle t, which should
// be near p: refinement inserts a triangle's circumcentre from it. A t
// that is not a live triangle is ignored.
func (m *Mesh) InsertFrom(p Point, t int) ([]int, error) {
	if t < 0 || t >= len(m.Tris) || !m.Tris[t].Alive {
		return m.Insert(p)
	}
	return m.insert(m.walk(t, p), p)
}

// insert adds p, which lies in triangle t0 (-1: in none).
func (m *Mesh) insert(t0 int, p Point) ([]int, error) {
	if t0 < 0 {
		return nil, fmt.Errorf("geom: point (%v,%v) outside the mesh", p.X, p.Y)
	}
	// Reject duplicates of the containing triangle's vertices.
	for _, v := range m.Tris[t0].V {
		if m.Pts[v].Dist2(p) < 1e-20 {
			return nil, fmt.Errorf("geom: duplicate point (%v,%v)", p.X, p.Y)
		}
	}

	m.epoch++
	if m.epoch == 0 {
		clear(m.mark)
		m.epoch = 1
	}
	if n := len(m.Tris) - len(m.mark); n > 0 {
		m.mark = append(m.mark, make([]uint32, n)...)
	}
	if n := len(m.Pts) - len(m.from); n > 0 {
		m.from = append(m.from, make([]int32, n)...)
		m.to = append(m.to, make([]int32, n)...)
	}

	// Grow the cavity: DFS over triangles whose circumcircle contains p.
	m.mark[t0] = m.epoch
	stack := append(m.stack[:0], t0)
	cavity := m.cavity[:0]
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, t)
		for _, n := range m.Tris[t].N {
			if n < 0 || m.mark[n] == m.epoch {
				continue
			}
			tri := &m.Tris[n]
			if InCircumcircle(m.Pts[tri.V[0]], m.Pts[tri.V[1]], m.Pts[tri.V[2]], p) {
				m.mark[n] = m.epoch
				stack = append(stack, n)
			}
		}
	}
	m.stack, m.cavity = stack, cavity
	m.InsertSteps += len(cavity)

	// Collect the cavity boundary: directed edges (a -> b) whose opposite
	// triangle is outside the cavity, with that outside neighbour.
	boundary := m.boundary[:0]
	for _, t := range cavity {
		tri := &m.Tris[t]
		for i := 0; i < 3; i++ {
			n := tri.N[i]
			if n < 0 || m.mark[n] != m.epoch {
				boundary = append(boundary, bEdge{tri.V[i], tri.V[(i+1)%3], n})
			}
		}
	}
	m.boundary = boundary

	// Kill cavity triangles, freeing their slots.
	for _, t := range cavity {
		m.Tris[t].Alive = false
		m.free = append(m.free, t)
	}

	// Add the new vertex and fan new triangles over the boundary.
	pv := len(m.Pts)
	m.Pts = append(m.Pts, p)
	newTris := m.created[:0]
	for _, e := range boundary {
		nt := m.alloc(Tri{V: [3]int{e.a, e.b, pv}, N: [3]int{e.outside, -1, -1}, Alive: true})
		// Hook the outside neighbour back to us across edge (a,b).
		if e.outside >= 0 {
			out := &m.Tris[e.outside]
			for i := 0; i < 3; i++ {
				if out.V[i] == e.b && out.V[(i+1)%3] == e.a {
					out.N[i] = nt
					break
				}
			}
		}
		newTris = append(newTris, nt)
	}
	m.created = newTris
	m.stitch()
	m.hint = newTris[0]
	if m.grid != nil {
		m.grid[m.cell(p)] = newTris[0]
	}
	return newTris, nil
}

// stitch links the fan's neighbours, created[i] over boundary[i]: new
// triangle (a,b,p) has edges (b,p) and (p,a); its neighbour across (b,p)
// is the new triangle whose boundary edge starts at b, and across (p,a)
// the one whose edge ends at a. Where no boundary edge of this insert
// starts at b (or ends at a), from[b] (or to[a]) is an earlier insert's,
// and the edge stays -1.
func (m *Mesh) stitch() {
	for j, e := range m.boundary {
		m.from[e.a], m.to[e.b] = int32(j), int32(j)
	}
	for i, e := range m.boundary {
		tri := &m.Tris[m.created[i]]
		if j := m.from[e.b]; int(j) < len(m.boundary) && m.boundary[j].a == e.b {
			tri.N[1] = m.created[j]
		}
		if j := m.to[e.a]; int(j) < len(m.boundary) && m.boundary[j].b == e.a {
			tri.N[2] = m.created[j]
		}
	}
}

// alloc stores t in a free slot or appends, returning its index.
func (m *Mesh) alloc(t Tri) int {
	if n := len(m.free); n > 0 {
		idx := m.free[n-1]
		m.free = m.free[:n-1]
		m.Tris[idx] = t
		return idx
	}
	m.Tris = append(m.Tris, t)
	return len(m.Tris) - 1
}

// Validate checks structural invariants: CCW orientation, symmetric
// adjacency, and (optionally expensive) the Delaunay empty-circumcircle
// property against all mesh vertices when full is true.
func (m *Mesh) Validate(full bool) error {
	for i := range m.Tris {
		tri := &m.Tris[i]
		if !tri.Alive {
			continue
		}
		a, b, c := m.Pts[tri.V[0]], m.Pts[tri.V[1]], m.Pts[tri.V[2]]
		if Orient2D(a, b, c) <= 0 {
			return fmt.Errorf("geom: triangle %d not CCW", i)
		}
		for e := 0; e < 3; e++ {
			n := tri.N[e]
			if n < 0 {
				continue
			}
			if n >= len(m.Tris) || !m.Tris[n].Alive {
				return fmt.Errorf("geom: triangle %d edge %d points at dead neighbour %d", i, e, n)
			}
			// The neighbour must reference us back across the shared edge.
			va, vb := tri.V[e], tri.V[(e+1)%3]
			back := false
			nt := &m.Tris[n]
			for e2 := 0; e2 < 3; e2++ {
				if nt.V[e2] == vb && nt.V[(e2+1)%3] == va && nt.N[e2] == i {
					back = true
				}
			}
			if !back {
				return fmt.Errorf("geom: adjacency %d<->%d not symmetric", i, n)
			}
		}
	}
	if full {
		for i := range m.Tris {
			tri := &m.Tris[i]
			if !tri.Alive {
				continue
			}
			a, b, c := m.Pts[tri.V[0]], m.Pts[tri.V[1]], m.Pts[tri.V[2]]
			for v := range m.Pts {
				if v == tri.V[0] || v == tri.V[1] || v == tri.V[2] {
					continue
				}
				if InCircumcircle(a, b, c, m.Pts[v]) {
					return fmt.Errorf("geom: triangle %d circumcircle contains vertex %d", i, v)
				}
			}
		}
	}
	return nil
}
