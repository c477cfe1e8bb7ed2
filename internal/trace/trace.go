// Package trace defines the task-graph representation the discrete-event
// simulator replays. Applications (internal/apps/...) generate a Graph by
// running their real algorithm instrumented at task boundaries; the
// simulator then schedules that graph on a virtual cluster under any
// policy, with costs in virtual nanoseconds.
//
// Each task records the attributes the paper's task model cares about
// (§II): locality class, granularity (cost), data footprint (blocks),
// migration payload, and the communication it performs — both the
// baseline messages it sends wherever it runs and the extra remote
// references it incurs when executed away from its home place.
package trace

import "fmt"

// HomeMode says how a task's home place is determined.
type HomeMode uint8

const (
	// HomeFixed pins the task's home to the Home field — the X10
	// `async (p) S` with an explicit place expression.
	HomeFixed HomeMode = iota
	// HomeInherit homes the task at whatever place executes its parent —
	// the paper's condition (b): a task spawned by a stolen task is local
	// to the thief, so no extra cost needs to be paid.
	HomeInherit
)

// Task is one node of the graph.
type Task struct {
	// ID is the task's index in Graph.Tasks.
	ID int
	// Class is the locality classification (Sensitive or Flexible is
	// expressed via task.Class in the runtime; here a bool avoids an
	// import cycle-free duplicate).
	Flexible bool
	// HomeMode selects fixed or inherited homing.
	HomeMode HomeMode
	// Home is the fixed home place (ignored under HomeInherit).
	Home int
	// CostNS is the task's granularity: single-worker execution time.
	CostNS int64
	// Children lists tasks this task spawns, by ID.
	Children []int
	// SpawnFrac optionally gives, per child, the fraction of this task's
	// execution at which the child is spawned (0..1). Empty means children
	// are spread uniformly across the parent's execution interval.
	SpawnFrac []float64
	// Blocks is the data footprint for the L1d cache model.
	Blocks []uint64
	// BlockReps is how many passes the task makes over its footprint
	// (intra-task reuse; 0 means 1). Higher values lower the baseline
	// miss rate, amplifying the relative cost of a migration cold start.
	BlockReps int
	// MigBytes is the payload copied when the task migrates.
	MigBytes int
	// MigMsgs is the number of extra messages (remote data references)
	// the task performs when executed away from its home place.
	MigMsgs int
	// BaseMsgs/BaseBytes is communication the task performs regardless of
	// where it executes (e.g. publishing results, neighbour exchange).
	BaseMsgs  int
	BaseBytes int
}

// Graph is a complete application trace.
type Graph struct {
	// Name labels the workload (e.g. "dmg").
	Name string
	// Tasks holds every task; Tasks[i].ID == i.
	Tasks []Task
	// Roots are the initially available tasks.
	Roots []int
	// SeqNS optionally records the measured or modelled sequential
	// execution time. Zero means "use TotalWorkNS".
	SeqNS int64
}

// NumTasks returns the task count.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// Clone returns a deep copy of g: mutating the copy (or the original)
// cannot be observed through the other. Traces are deterministic per
// (app, seed) and expensive to generate, so callers share one Graph
// read-only across concurrent simulations; Clone exists for the cases that
// need a private mutable copy — and for tests that pin down that the
// simulator really does treat shared graphs as immutable.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		Name:  g.Name,
		Tasks: make([]Task, len(g.Tasks)),
		Roots: append([]int(nil), g.Roots...),
		SeqNS: g.SeqNS,
	}
	for i, t := range g.Tasks {
		t.Children = append([]int(nil), t.Children...)
		t.SpawnFrac = append([]float64(nil), t.SpawnFrac...)
		t.Blocks = append([]uint64(nil), t.Blocks...)
		out.Tasks[i] = t
	}
	return out
}

// TotalWorkNS sums all task costs — the critical quantity for speedup
// baselines when SeqNS is not set.
func (g *Graph) TotalWorkNS() int64 {
	var sum int64
	for i := range g.Tasks {
		sum += g.Tasks[i].CostNS
	}
	return sum
}

// Sequential returns the time a single worker needs: SeqNS when recorded,
// else the total work.
func (g *Graph) Sequential() int64 {
	if g.SeqNS > 0 {
		return g.SeqNS
	}
	return g.TotalWorkNS()
}

// FlexibleFraction returns the fraction of tasks annotated flexible.
func (g *Graph) FlexibleFraction() float64 {
	if len(g.Tasks) == 0 {
		return 0
	}
	n := 0
	for i := range g.Tasks {
		if g.Tasks[i].Flexible {
			n++
		}
	}
	return float64(n) / float64(len(g.Tasks))
}

// Validate checks structural invariants: IDs match indices, children
// exist and form a forest (each task has at most one parent, no cycles),
// every root exists, costs are non-negative, and spawn fractions are
// sane. It returns a descriptive error on the first violation.
func (g *Graph) Validate() error {
	parent := make([]int, len(g.Tasks))
	for i := range parent {
		parent[i] = -1
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != i {
			return fmt.Errorf("trace: task at index %d has ID %d", i, t.ID)
		}
		if t.CostNS < 0 {
			return fmt.Errorf("trace: task %d has negative cost %d", i, t.CostNS)
		}
		if len(t.SpawnFrac) != 0 && len(t.SpawnFrac) != len(t.Children) {
			return fmt.Errorf("trace: task %d has %d spawn fractions for %d children",
				i, len(t.SpawnFrac), len(t.Children))
		}
		for _, f := range t.SpawnFrac {
			if f < 0 || f > 1 {
				return fmt.Errorf("trace: task %d has spawn fraction %v outside [0,1]", i, f)
			}
		}
		for _, c := range t.Children {
			if c < 0 || c >= len(g.Tasks) {
				return fmt.Errorf("trace: task %d has out-of-range child %d", i, c)
			}
			if c == i {
				return fmt.Errorf("trace: task %d is its own child", i)
			}
			if parent[c] != -1 {
				return fmt.Errorf("trace: task %d has two parents (%d and %d)", c, parent[c], i)
			}
			parent[c] = i
		}
	}
	seenRoot := make(map[int]bool, len(g.Roots))
	for _, r := range g.Roots {
		if r < 0 || r >= len(g.Tasks) {
			return fmt.Errorf("trace: root %d out of range", r)
		}
		if parent[r] != -1 {
			return fmt.Errorf("trace: root %d has a parent (%d)", r, parent[r])
		}
		if seenRoot[r] {
			return fmt.Errorf("trace: root %d listed twice", r)
		}
		seenRoot[r] = true
	}
	// Reachability: every task must be reachable from a root; with the
	// single-parent invariant established above, cycles are impossible
	// among reachable tasks, so full coverage implies a forest.
	reach := 0
	stack := append([]int(nil), g.Roots...)
	visited := make([]bool, len(g.Tasks))
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n] {
			return fmt.Errorf("trace: task %d reached twice (cycle or shared child)", n)
		}
		visited[n] = true
		reach++
		stack = append(stack, g.Tasks[n].Children...)
	}
	if reach != len(g.Tasks) {
		return fmt.Errorf("trace: %d of %d tasks unreachable from roots", len(g.Tasks)-reach, reach)
	}
	return nil
}

// Builder assembles a valid Graph incrementally.
type Builder struct {
	g Graph
}

// NewBuilder starts a graph with the given workload name.
func NewBuilder(name string) *Builder {
	return &Builder{g: Graph{Name: name}}
}

// add appends t (ignoring t.ID and t.Children) and returns its ID.
func (b *Builder) add(t Task) int {
	t.ID = len(b.g.Tasks)
	t.Children = nil
	b.g.Tasks = append(b.g.Tasks, t)
	return t.ID
}

// Root adds an initially available task.
func (b *Builder) Root(t Task) int {
	id := b.add(t)
	b.g.Roots = append(b.g.Roots, id)
	return id
}

// Child adds a task spawned by parent.
func (b *Builder) Child(parent int, t Task) int {
	if parent < 0 || parent >= len(b.g.Tasks) {
		panic(fmt.Sprintf("trace: Child of unknown parent %d", parent))
	}
	id := b.add(t)
	b.g.Tasks[parent].Children = append(b.g.Tasks[parent].Children, id)
	return id
}

// Graph validates and returns the built graph. The builder must not be
// used afterwards.
func (b *Builder) Graph() (*Graph, error) {
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return &b.g, nil
}
