package linalg

import (
	"fmt"

	"distws/internal/dag"
)

// pipeline is a multi-stage streaming graph: items independent chains of
// stages tasks each, task (i, s) reading the item's stage-s block and
// writing the stage-s+1 block. The blind decomposition is systolic —
// stage s of item i is homed at place (i+s) mod places — which balances
// load perfectly but moves every item's buffer at every stage; the
// data-aware policy instead keeps an item where its buffer already is.
type pipeline struct {
	items, stages, width int
	seed                 int64
}

// NewPipeline returns a pipeline of items chains × stages stages over
// blocks of width float64 values.
func NewPipeline(items, stages, width int, seed int64) App {
	if items <= 0 || stages <= 0 || width <= 0 {
		panic(fmt.Sprintf("linalg: Pipeline items=%d stages=%d width=%d", items, stages, width))
	}
	return &dataflow{name: "pipeline", kernels: &pipeline{items: items, stages: stages, width: width, seed: seed}}
}

// stageReps is how many sweeps each stage makes over its block, sizing
// task cost against the block's transfer time.
const stageReps = 8

// blk is item i's stage-s block: each item's stages+1 blocks are
// consecutive, in stage order.
func (a *pipeline) blk(i, s int) int { return i*(a.stages+1) + s }

func (a *pipeline) size() int { return a.items }

func (a *pipeline) block(i int) int { return a.blk(i, 0) }

// tile is item i's buffer before its first stage.
func (a *pipeline) tile(i int) []float64 {
	b := make([]float64, a.width)
	for e := range b {
		b[e] = hash01(a.seed, i, e)
	}
	return b
}

// stage advances buf by one sweep family: stageReps passes of a
// multiply-accumulate with stage-specific constants. The sweep takes four
// elements a step: a one-element loop ran twice as slow at one of the two
// offsets mod 64 bytes the linker can give the function, and which one it
// gets is decided by unrelated code placed ahead of it.
func stage(buf []float64, seed int64, s int) {
	for rep := 0; rep < stageReps; rep++ {
		c := 1 + hash01(seed, 1<<20+s, rep)/(1<<10)
		d := hash01(seed, 2<<20+s, rep)
		e := 0
		for ; e+4 <= len(buf); e += 4 {
			q := buf[e : e+4 : e+4]
			q[0] = q[0]*c + d
			q[1] = q[1]*c + d
			q[2] = q[2]*c + d
			q[3] = q[3]*c + d
		}
		for ; e < len(buf); e++ {
			buf[e] = buf[e]*c + d
		}
	}
}

// build emits the graph stage-by-stage; each item owns one physical
// buffer, with the per-stage blocks naming its successive versions.
func (a *pipeline) build(places int) (*dag.Graph, []op) {
	g := &dag.Graph{Name: "pipeline"}
	for i := 0; i < a.items; i++ {
		g.AddBlock(a.width*8, i%places)
		for s := 1; s <= a.stages; s++ {
			g.AddBlock(a.width*8, dag.NoSeed)
		}
	}
	cost := flopNS(2 * int64(stageReps) * int64(a.width))
	var ops []op
	for s := 0; s < a.stages; s++ {
		for i := 0; i < a.items; i++ {
			g.Tasks = append(g.Tasks, dag.Task{
				ID:      len(g.Tasks),
				Label:   label("stage", i, s),
				CostNS:  cost,
				Home:    (i + s) % places,
				Inputs:  []int{a.blk(i, s)},
				Outputs: []int{a.blk(i, s+1)},
			})
			ops = append(ops, func(bufs [][]float64) { stage(bufs[i], a.seed, s) })
		}
	}
	return g, ops
}
