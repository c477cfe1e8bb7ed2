package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestOrient2D(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient2D(a, b, Point{0, 1}) <= 0 {
		t.Fatalf("CCW triple should be positive")
	}
	if Orient2D(a, b, Point{0, -1}) >= 0 {
		t.Fatalf("CW triple should be negative")
	}
	if Orient2D(a, b, Point{2, 0}) != 0 {
		t.Fatalf("collinear triple should be zero")
	}
}

func TestInCircumcircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) — CCW.
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	if !InCircumcircle(a, b, c, Point{0, 0}) {
		t.Fatalf("center should be inside")
	}
	if InCircumcircle(a, b, c, Point{2, 2}) {
		t.Fatalf("far point should be outside")
	}
}

func TestCircumcenter(t *testing.T) {
	cc, ok := Circumcenter(Point{1, 0}, Point{0, 1}, Point{-1, 0})
	if !ok {
		t.Fatalf("circumcenter of proper triangle should exist")
	}
	if math.Abs(cc.X) > 1e-9 || math.Abs(cc.Y) > 1e-9 {
		t.Fatalf("circumcenter = %v, want origin", cc)
	}
	if _, ok := Circumcenter(Point{0, 0}, Point{1, 1}, Point{2, 2}); ok {
		t.Fatalf("degenerate triangle should have no circumcenter")
	}
}

func TestMinAngleDeg(t *testing.T) {
	// Equilateral: all angles 60.
	h := math.Sqrt(3) / 2
	got := MinAngleDeg(Point{0, 0}, Point{1, 0}, Point{0.5, h})
	if math.Abs(got-60) > 1e-6 {
		t.Fatalf("equilateral min angle = %v, want 60", got)
	}
	// Right isoceles: min angle 45.
	got = MinAngleDeg(Point{0, 0}, Point{1, 0}, Point{0, 1})
	if math.Abs(got-45) > 1e-6 {
		t.Fatalf("right isoceles min angle = %v, want 45", got)
	}
}

func TestInsertSinglePoint(t *testing.T) {
	m := NewMesh(0, 0, 1, 1)
	created, err := m.Insert(Point{0.5, 0.5})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if len(created) != 3 {
		t.Fatalf("inserting into one triangle should create 3, got %d", len(created))
	}
	if m.NumAlive() != 3 {
		t.Fatalf("NumAlive = %d, want 3", m.NumAlive())
	}
	if err := m.Validate(true); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestInsertManyPointsStaysDelaunay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMesh(0, 0, 1, 1)
	n := 120
	for i := 0; i < n; i++ {
		p := Point{rng.Float64(), rng.Float64()}
		if _, err := m.Insert(p); err != nil {
			t.Fatalf("Insert #%d: %v", i, err)
		}
	}
	if err := m.Validate(true); err != nil {
		t.Fatalf("mesh invalid after %d inserts: %v", n, err)
	}
	// Euler: with s super vertices, n inner points, all inside the super
	// triangle: triangles = 2*(n+3) - 2 - 3 = 2n+1.
	if got, want := m.NumAlive(), 2*n+1; got != want {
		t.Fatalf("NumAlive = %d, want %d", got, want)
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	m := NewMesh(0, 0, 1, 1)
	if _, err := m.Insert(Point{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(Point{0.5, 0.5}); err == nil {
		t.Fatalf("duplicate insert should fail")
	}
}

func TestInsertOutsideRejected(t *testing.T) {
	m := NewMesh(0, 0, 1, 1)
	if _, err := m.Insert(Point{1e9, 1e9}); err == nil {
		t.Fatalf("point outside the super-triangle should be rejected")
	}
}

func TestLocateFindsContainingTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMesh(0, 0, 1, 1)
	for i := 0; i < 60; i++ {
		m.Insert(Point{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 100; i++ {
		p := Point{rng.Float64(), rng.Float64()}
		ti := m.Locate(p)
		if ti < 0 {
			t.Fatalf("Locate failed for in-domain point %v", p)
		}
		if !m.contains(ti, p) {
			t.Fatalf("Locate returned triangle not containing %v", p)
		}
	}
}

func TestInsertStepsAccumulate(t *testing.T) {
	m := NewMesh(0, 0, 1, 1)
	m.Insert(Point{0.3, 0.3})
	if m.InsertSteps == 0 {
		t.Fatalf("InsertSteps should accumulate cavity work")
	}
}

func TestHasSuperVertex(t *testing.T) {
	m := NewMesh(0, 0, 1, 1)
	if !m.HasSuperVertex(0) {
		t.Fatalf("initial triangle is the super-triangle")
	}
	// Three interior points form one triangle with no super vertices.
	m.Insert(Point{0.4, 0.4})
	m.Insert(Point{0.6, 0.4})
	m.Insert(Point{0.5, 0.6})
	any := false
	for i := range m.Tris {
		if m.Tris[i].Alive && !m.HasSuperVertex(i) {
			any = true
		}
	}
	if !any {
		t.Fatalf("after 3 inserts some triangle should be fully interior")
	}
}

// Property: for random point sets, the mesh remains structurally valid and
// triangle count follows Euler's formula.
func TestMeshInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewMesh(0, 0, 1, 1)
		inserted := 0
		for i := 0; i < n; i++ {
			if _, err := m.Insert(Point{rng.Float64(), rng.Float64()}); err == nil {
				inserted++
			}
		}
		if err := m.Validate(true); err != nil {
			return false
		}
		return m.NumAlive() == 2*inserted+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the in-circumcircle predicate is symmetric under rotation of
// the triangle's vertices.
func TestInCircumcircleRotationProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, px, py int8) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		p := Point{float64(px), float64(py)}
		if Orient2D(a, b, c) <= 0 {
			a, b = b, a // force CCW; skip degenerate
			if Orient2D(a, b, c) <= 0 {
				return true
			}
		}
		r1 := InCircumcircle(a, b, c, p)
		r2 := InCircumcircle(b, c, a, p)
		r3 := InCircumcircle(c, a, b, p)
		return r1 == r2 && r2 == r3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// insertOracle is the map-based Bowyer–Watson insert that Mesh.Insert
// replaced, kept as the reference the scratch-reusing one must match
// triangle slot for triangle slot.
func insertOracle(m *Mesh, p Point) ([]int, error) {
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

	// Grow the cavity: DFS over triangles whose circumcircle contains p.
	inCavity := map[int]bool{t0: true}
	stack := []int{t0}
	var cavity []int
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, t)
		for _, n := range m.Tris[t].N {
			if n < 0 || inCavity[n] {
				continue
			}
			tri := &m.Tris[n]
			if InCircumcircle(m.Pts[tri.V[0]], m.Pts[tri.V[1]], m.Pts[tri.V[2]], p) {
				inCavity[n] = true
				stack = append(stack, n)
			}
		}
	}
	m.InsertSteps += len(cavity)

	// Collect the cavity boundary: directed edges (a -> b) whose opposite
	// triangle is outside the cavity, with that outside neighbour.
	type bEdge struct {
		a, b    int
		outside int
	}
	var boundary []bEdge
	for _, t := range cavity {
		tri := &m.Tris[t]
		for i := 0; i < 3; i++ {
			n := tri.N[i]
			if n < 0 || !inCavity[n] {
				boundary = append(boundary, bEdge{tri.V[i], tri.V[(i+1)%3], n})
			}
		}
	}

	// Kill cavity triangles, freeing their slots.
	for _, t := range cavity {
		m.Tris[t].Alive = false
		m.free = append(m.free, t)
	}

	// Add the new vertex and fan new triangles over the boundary.
	pv := len(m.Pts)
	m.Pts = append(m.Pts, p)
	newTris := make([]int, 0, len(boundary))
	// edgeOwner maps directed edge (x,y) of a *new* triangle to its index
	// so adjacent fan triangles can be stitched together.
	edgeOwner := make(map[[2]int]int, 3*len(boundary))
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
		edgeOwner[[2]int{e.a, e.b}] = nt
		newTris = append(newTris, nt)
	}
	// Stitch fan neighbours: new triangle (a,b,p) has edges (b,p) and
	// (p,a); its neighbour across (b,p) is the new triangle starting with
	// b — i.e. owner of directed boundary edge (b, x).
	for _, nt := range newTris {
		tri := &m.Tris[nt]
		a, b := tri.V[0], tri.V[1]
		for e, owner := range edgeOwner {
			if e[0] == b { // neighbour across (b, p)
				tri.N[1] = owner
			}
			if e[1] == a { // neighbour across (p, a)
				tri.N[2] = owner
			}
		}
	}
	m.hint = newTris[0]
	return newTris, nil
}

// oracleInputs are the point sets the differential test replays: uniform,
// a 40×40 lattice (collinear rows, cocircular squares), tight clusters,
// draws from a few lattice sites (mostly duplicates), and a spread that
// reaches past the box into the super-triangle's corners and outside it.
func oracleInputs(seed int64, n int) map[string][]Point {
	rng := rand.New(rand.NewSource(seed))
	lattice := func(k int) Point {
		return Point{float64(rng.Intn(k)) / float64(k-1), float64(rng.Intn(k)) / float64(k-1)}
	}
	in := map[string][]Point{}
	for i := 0; i < n; i++ {
		c := Point{float64(rng.Intn(3)) / 2, float64(rng.Intn(3)) / 2}
		in["random"] = append(in["random"], Point{rng.Float64(), rng.Float64()})
		in["lattice"] = append(in["lattice"], lattice(40))
		in["clustered"] = append(in["clustered"], Point{c.X + 1e-4*rng.NormFloat64(), c.Y + 1e-4*rng.NormFloat64()})
		in["duplicates"] = append(in["duplicates"], lattice(6))
		in["outside"] = append(in["outside"], Point{40*rng.Float64() - 20, 40*rng.Float64() - 20})
	}
	return in
}

// lockstep inserts pts into m with Insert and into a copy with
// insertOracle, failing on the first insert after which the created
// triangles, the error, InsertSteps, Tris, Pts or the free list differ.
func lockstep(t *testing.T, name string, m *Mesh, pts []Point) {
	t.Helper()
	o := &Mesh{Pts: slices.Clone(m.Pts), Tris: slices.Clone(m.Tris), free: slices.Clone(m.free),
		hint: m.hint, InsertSteps: m.InsertSteps}
	for i, p := range pts {
		got, gerr := m.Insert(p)
		want, werr := insertOracle(o, p)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(got, want) {
			t.Fatalf("%s insert %d %v: created %v, %v; oracle %v, %v", name, i, p, got, gerr, want, werr)
		}
		if m.InsertSteps != o.InsertSteps || m.hint != o.hint || !slices.Equal(m.Tris, o.Tris) ||
			!slices.Equal(m.Pts, o.Pts) || !slices.Equal(m.free, o.free) {
			t.Fatalf("%s insert %d %v: mesh state diverges from the oracle", name, i, p)
		}
	}
}

// TestInsertMatchesOracle drives Insert and the map-based oracle in
// lockstep over 30 seeds of every input kind: every triangle slot, its
// adjacency, InsertSteps and every error must be identical.
func TestInsertMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for name, pts := range oracleInputs(seed, 300) {
			lockstep(t, fmt.Sprintf("seed %d %s", seed, name), NewMesh(0, 0, 1, 1), pts)
		}
	}
}

// TestInsertEpochWrap runs the lockstep across the cavity-stamp epoch's
// wrap, with the epoch set just below it and every slot holding a stale
// stamp of the first epoch after it: the wrap must clear them, or a
// triangle outside the cavity would be taken for one inside.
func TestInsertEpochWrap(t *testing.T) {
	pts := oracleInputs(3, 300)["random"]
	m := NewMesh(0, 0, 1, 1)
	lockstep(t, "before", m, pts[:100])
	for i := range m.mark {
		m.mark[i] = 1
	}
	m.epoch = math.MaxUint32 - 2
	lockstep(t, "across the wrap", m, pts[100:])
	if m.epoch == 0 || m.epoch > 200 {
		t.Fatalf("epoch = %d, want it wrapped past 0", m.epoch)
	}
}

// TestInsertAllocatesOnlyItsResult pins Insert on a warmed mesh to one
// allocation, the returned slice.
func TestInsertAllocatesOnlyItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMesh(0, 0, 1, 1)
	for i := 0; i < 2000; i++ {
		m.Insert(Point{rng.Float64(), rng.Float64()})
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := m.Insert(Point{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Insert allocates %v objects, want at most 1", n)
	}
}

// BenchmarkInsert times one insert into a mesh of up to 4 096 uniform
// points, rebuilt every 4 096 inserts so ns/op does not grow with b.N:
// the map-based oracle against Insert.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 4096)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	for _, k := range []struct {
		name   string
		insert func(*Mesh, Point) ([]int, error)
	}{{"oracle", insertOracle}, {"scratch", (*Mesh).Insert}} {
		b.Run(k.name, func(b *testing.B) {
			var m *Mesh
			for i := 0; i < b.N; i++ {
				if i%len(pts) == 0 {
					m = NewMesh(0, 0, 1, 1)
				}
				k.insert(m, pts[i%len(pts)])
			}
		})
	}
}
