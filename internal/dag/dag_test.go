package dag

import (
	"errors"
	"reflect"
	"testing"
)

// chain builds a 3-task RAW chain: t0 writes b1, t1 reads b1 writes b2,
// t2 reads b2.
func chain() *Graph {
	return &Graph{
		Name: "chain",
		Tasks: []Task{
			{ID: 0, CostNS: 10, Outputs: []uint64{1}},
			{ID: 1, CostNS: 10, Inputs: []uint64{1}, Outputs: []uint64{2}},
			{ID: 2, CostNS: 10, Inputs: []uint64{2}},
		},
		BlockBytes: map[uint64]int{1: 100, 2: 200},
	}
}

func TestScheduleRAW(t *testing.T) {
	s := NewSchedule(chain())
	if got := s.InDegree; !reflect.DeepEqual(got, []int{0, 1, 1}) {
		t.Fatalf("InDegree = %v", got)
	}
	if got := s.Dependents[0]; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Dependents[0] = %v", got)
	}
	if got := s.Dependents[1]; !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Dependents[1] = %v", got)
	}
}

func TestScheduleWAWAndWAR(t *testing.T) {
	// t0 writes b, t1 reads b, t2 writes b again: t2 must wait for both
	// the previous writer (WAW) and the reader (WAR).
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []uint64{7}},
			{ID: 1, Inputs: []uint64{7}},
			{ID: 2, Outputs: []uint64{7}},
		},
		BlockBytes: map[uint64]int{7: 8},
	}
	s := NewSchedule(g)
	if got := s.Dependents[0]; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Dependents[0] = %v", got)
	}
	if got := s.Dependents[1]; !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Dependents[1] = %v", got)
	}
	if got := s.InDegree[2]; got != 2 {
		t.Fatalf("InDegree[2] = %d, want 2 (WAW + WAR)", got)
	}
}

func TestScheduleDedupsParallelEdges(t *testing.T) {
	// t1 reads two blocks both written by t0: one edge, in-degree 1.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []uint64{1, 2}},
			{ID: 1, Inputs: []uint64{1, 2}, Deps: []int{0}},
		},
		BlockBytes: map[uint64]int{1: 8, 2: 8},
	}
	s := NewSchedule(g)
	if got := s.Dependents[0]; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Dependents[0] = %v", got)
	}
	if got := s.InDegree[1]; got != 1 {
		t.Fatalf("InDegree[1] = %d, want 1 after dedup", got)
	}
}

func TestReadModifyWriteHasNoSelfEdge(t *testing.T) {
	// A task reading and writing the same block (GEMM update in place)
	// must not depend on itself.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []uint64{1}},
			{ID: 1, Inputs: []uint64{1}, Outputs: []uint64{1}},
		},
		BlockBytes: map[uint64]int{1: 8},
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := NewSchedule(g).InDegree[1]; got != 1 {
		t.Fatalf("InDegree[1] = %d, want 1", got)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := chain()
	g.Tasks[0].Deps = []int{2} // close the loop
	err := g.Validate()
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("Validate = %v, want *CycleError", err)
	}
	if len(ce.Tasks) != 3 {
		t.Fatalf("CycleError.Tasks = %v, want all 3", ce.Tasks)
	}
	if ce.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestValidateDerivesEdgesOnce pins what lets a run derive its edge lists
// once: validate hands a runner the schedule NewSchedule would build, and
// a graph whose explicit deps all point at earlier tasks (every graph the
// repo builds) is acyclic by construction, so plain Validate derives
// nothing — a caller in another package pays for NewSchedule alone.
func TestValidateDerivesEdgesOnce(t *testing.T) {
	g := chain()
	g.Tasks[2].Deps = []int{0}
	if s, err := g.validate(false); s != nil || err != nil {
		t.Fatalf("validate(false) with only earlier deps = %v, %v, want no schedule derived", s, err)
	}
	later := chain()
	later.Tasks = append(later.Tasks, Task{ID: 3, CostNS: 10})
	later.Tasks[0].Deps = []int{3} // a dep on a later task that closes no loop
	for _, g := range []*Graph{g, later} {
		s, err := g.validate(true)
		if err != nil {
			t.Fatal(err)
		}
		if want := NewSchedule(g); !reflect.DeepEqual(s, want) {
			t.Fatalf("validate(true) = %+v, NewSchedule = %+v", s, want)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Graph)
	}{
		{"bad id", func(g *Graph) { g.Tasks[1].ID = 7 }},
		{"negative cost", func(g *Graph) { g.Tasks[0].CostNS = -1 }},
		{"unsized input", func(g *Graph) { g.Tasks[2].Inputs = []uint64{99} }},
		{"unsized output", func(g *Graph) { g.Tasks[0].Outputs = append(g.Tasks[0].Outputs, 99) }},
		{"dep out of range", func(g *Graph) { g.Tasks[1].Deps = []int{5} }},
		{"self dep", func(g *Graph) { g.Tasks[1].Deps = []int{1} }},
	} {
		g := chain()
		tc.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed graph", tc.name)
		}
	}
}

func TestTrackerReleaseOrder(t *testing.T) {
	// Diamond: 0 → {1,2} → 3.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []uint64{1}},
			{ID: 1, Inputs: []uint64{1}, Outputs: []uint64{2}},
			{ID: 2, Inputs: []uint64{1}, Outputs: []uint64{3}},
			{ID: 3, Inputs: []uint64{2, 3}},
		},
		BlockBytes: map[uint64]int{1: 8, 2: 8, 3: 8},
	}
	tr := NewTracker(NewSchedule(g))
	if got := tr.Ready(nil); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Ready = %v", got)
	}
	if got := tr.Complete(0, nil); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Complete(0) = %v, want id order", got)
	}
	if got := tr.Complete(1, nil); len(got) != 0 {
		t.Fatalf("Complete(1) = %v, want none", got)
	}
	if tr.Done() {
		t.Fatal("Done too early")
	}
	if got := tr.Complete(2, nil); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Complete(2) = %v", got)
	}
	tr.Complete(3, nil)
	if !tr.Done() {
		t.Fatal("not Done after all completions")
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory(4)
	if d.Anywhere(1) {
		t.Fatal("empty directory claims residency")
	}
	d.Produce(1, 2)
	if !d.Resident(1, 2) || d.Resident(1, 0) {
		t.Fatal("Produce residency wrong")
	}
	d.Replicate(1, 0)
	if !d.Resident(1, 0) || !d.Resident(1, 2) {
		t.Fatal("Replicate lost a copy")
	}
	// A new producer invalidates every other copy.
	d.Produce(1, 3)
	if d.Resident(1, 0) || d.Resident(1, 2) || !d.Resident(1, 3) {
		t.Fatal("Produce did not invalidate stale copies")
	}
}

func TestDirectorySeedWraps(t *testing.T) {
	g := chain()
	g.Seed = map[uint64]int{1: 6} // built for more places than we have
	d := NewDirectory(4)
	d.SeedFrom(g)
	if !d.Resident(1, 2) {
		t.Fatal("seed owner not wrapped mod places")
	}
}

func TestFetchAndResidentBytes(t *testing.T) {
	g := chain()
	d := NewDirectory(2)
	d.Produce(1, 0)
	d.Produce(2, 1)
	// t2 reads block 2 (200B, resident at 1).
	if got := d.FetchBytes(g, 2, 1); got != 0 {
		t.Fatalf("FetchBytes at home = %d", got)
	}
	if got := d.FetchBytes(g, 2, 0); got != 200 {
		t.Fatalf("FetchBytes away = %d", got)
	}
	if got := d.ResidentBytes(g, 2, 1); got != 200 {
		t.Fatalf("ResidentBytes = %d", got)
	}
	// Blocks resident nowhere cost nothing to fetch.
	g.Tasks[2].Inputs = append(g.Tasks[2].Inputs, 1)
	d2 := NewDirectory(2)
	if got := d2.FetchBytes(g, 2, 0); got != 0 {
		t.Fatalf("FetchBytes of unmaterialized blocks = %d", got)
	}
}

func TestBestPlace(t *testing.T) {
	g := chain()
	g.Tasks[2].Home = 0
	d := NewDirectory(3)
	d.Produce(2, 1)
	transfer := func(b int) int64 { return int64(b) } // 1 ns per byte
	// No backlog: the resident place wins over the declared home.
	if got := BestPlace(g, d, 2, []int64{0, 0, 0}, transfer); got != 1 {
		t.Fatalf("BestPlace = %d, want resident place 1", got)
	}
	// Enough backlog at the resident place flips it back home.
	if got := BestPlace(g, d, 2, []int64{0, 500, 0}, transfer); got != 0 {
		t.Fatalf("BestPlace with backlog = %d, want home 0", got)
	}
	// Ties go to the declared home.
	if got := BestPlace(g, d, 2, []int64{0, 200, 0}, transfer); got != 0 {
		t.Fatalf("BestPlace tie = %d, want home 0", got)
	}
	// Task 0 has no inputs: everything ties, home wins.
	g.Tasks[0].Home = 2
	if got := BestPlace(g, d, 0, []int64{0, 0, 0}, transfer); got != 2 {
		t.Fatalf("BestPlace no-input = %d, want home 2", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"blind": PolicyBlind, "Data-Aware": PolicyDataAware, " aware ": PolicyDataAware,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
	if PolicyBlind.String() != "blind" || PolicyDataAware.String() != "data-aware" {
		t.Fatal("Policy.String mismatch")
	}
	if !PolicyBlind.Valid() || Policy(9).Valid() {
		t.Fatal("Policy.Valid mismatch")
	}
}

func TestGraphAccounting(t *testing.T) {
	g := chain()
	if g.NumTasks() != 3 || g.TotalWorkNS() != 30 || g.Sequential() != 30 {
		t.Fatal("accounting mismatch")
	}
	g.SeqNS = 25
	if g.Sequential() != 25 {
		t.Fatal("SeqNS not honored")
	}
	if got := g.InputBytes(2); got != 200 {
		t.Fatalf("InputBytes = %d", got)
	}
}
