// Package geom provides the 2-D computational-geometry kernel behind the
// Delaunay mesh generation (DMG) and refinement (DMR) applications of the
// paper's evaluation: points, orientation and in-circumcircle predicates,
// and an incremental Bowyer–Watson triangulator with walking point
// location and full edge adjacency.
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
	hint int   // last triangle touched, seeds the locate walk

	// InsertSteps accumulates the number of cavity triangles processed
	// across all inserts — the app layer uses it as a work-unit measure.
	InsertSteps int

	// Insert's scratch, reused across calls so an insert neither hashes
	// nor allocates beyond its result. Slot t is in the current cavity
	// exactly when mark[t] == epoch; epoch is never 0, and every stamp is
	// cleared when it wraps, so a stale stamp never matches.
	mark     []uint32
	epoch    uint32
	stack    []int
	cavity   []int
	boundary []bEdge
}

// bEdge is a directed cavity-boundary edge (a -> b) with the triangle
// outside the cavity across it (-1 on the hull).
type bEdge struct {
	a, b    int
	outside int
}

// NewMesh creates a mesh whose super-triangle comfortably encloses the
// axis-aligned box (minX, minY)–(maxX, maxY).
func NewMesh(minX, minY, maxX, maxY float64) *Mesh {
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
		Pts: []Point{
			{cx - 2*r, cy - r},
			{cx + 2*r, cy - r},
			{cx, cy + 2*r},
		},
	}
	m.Tris = append(m.Tris, Tri{V: [3]int{0, 1, 2}, N: [3]int{-1, -1, -1}, Alive: true})
	return m
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

// Locate returns a live triangle containing p, walking from the last
// insertion site. It falls back to a linear scan if the walk cycles
// (possible with near-degenerate geometry). Returns -1 if p is outside
// every triangle (outside the super-triangle).
func (m *Mesh) Locate(p Point) int {
	t := m.hint
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
// newly created triangles. It returns an error when p falls outside the
// super-triangle or coincides with an existing vertex.
func (m *Mesh) Insert(p Point) ([]int, error) {
	t0 := m.Locate(p)
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
	for len(m.mark) < len(m.Tris) {
		m.mark = append(m.mark, 0)
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
	newTris := make([]int, 0, len(boundary))
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
	// Stitch fan neighbours: new triangle (a,b,p) has edges (b,p) and
	// (p,a); its neighbour across (b,p) is the new triangle whose boundary
	// edge starts at b, and across (p,a) the one whose edge ends at a.
	for i, e := range boundary {
		tri := &m.Tris[newTris[i]]
		for j, f := range boundary {
			if f.a == e.b {
				tri.N[1] = newTris[j]
			}
			if f.b == e.a {
				tri.N[2] = newTris[j]
			}
		}
	}
	m.hint = newTris[0]
	return newTris, nil
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
