package expt

import (
	"fmt"
	"strings"

	"distws/internal/apps/linalg"
	"distws/internal/dag"
	"distws/internal/sched"
	"distws/internal/sim"
)

// DAGCell is one (app, placement policy) measurement of the dataflow
// study.
type DAGCell struct {
	Policy dag.Policy
	// MakespanMS is the simulated completion time.
	MakespanMS float64
	// MigratedBytes is the input-block bytes fetched across places —
	// the data-movement cost of the schedule.
	MigratedBytes int64
	// ResidencyRate is the percent of input-block lookups served by a
	// locally resident copy.
	ResidencyRate float64
	Misses        int64
	RemoteSteals  int64
}

// DAGRow is one dataflow app's blind-versus-aware comparison.
type DAGRow struct {
	App   string
	Tasks int
	Cells []DAGCell // indexed by dag.Policy order: blind, data-aware
	// AwareSpeedup is blind makespan over data-aware makespan (>1 means
	// data-aware placement finished sooner).
	AwareSpeedup float64
	// BytesSaved is the percent reduction in migrated bytes under
	// data-aware placement.
	BytesSaved float64
}

// Cell returns the row's measurement under pol (zero value if absent).
func (row DAGRow) Cell(pol dag.Policy) DAGCell {
	for _, c := range row.Cells {
		if c.Policy == pol {
			return c
		}
	}
	return DAGCell{}
}

// dagPolicies is the study's sweep order.
var dagPolicies = []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware}

// DAGStudy runs the tiled linear-algebra suite (Cholesky, LU, pipeline)
// through the dataflow scheduler under DistWS, once locality-blind and
// once data-aware, on the runner's cluster. The headline claim it
// exhibits: data-aware placement cuts both migrated bytes and makespan
// on dataflow graphs whose tiles have meaningful transfer cost
// (acceptance pins Cholesky winning on both axes at seed 1).
func (r *Runner) DAGStudy() ([]DAGRow, error) {
	apps := linalg.Suite(r.Seed)
	rows := make([]DAGRow, len(apps))
	graphs := make([]*dag.Graph, len(apps))
	for i, a := range apps {
		g, err := a.Graph(r.Cluster.Places)
		if err != nil {
			return nil, fmt.Errorf("expt: dag graph %s: %w", a.Name(), err)
		}
		graphs[i] = g
		rows[i] = DAGRow{App: a.Name(), Tasks: g.NumTasks(), Cells: make([]DAGCell, len(dagPolicies))}
	}
	err := r.forEach(len(apps)*len(dagPolicies), func(i int) error {
		ai, pi := i/len(dagPolicies), i%len(dagPolicies)
		pol := dagPolicies[pi]
		res, err := sim.RunDAG(graphs[ai], r.Cluster, sched.DistWS, pol, sim.Options{Seed: r.Seed})
		if err != nil {
			return fmt.Errorf("expt: dag %s/%v: %w", rows[ai].App, pol, err)
		}
		rows[ai].Cells[pi] = DAGCell{
			Policy:        pol,
			MakespanMS:    float64(res.MakespanNS) / 1e6,
			MigratedBytes: res.DAG.FetchedBytes,
			ResidencyRate: res.DAG.ResidencyRate(),
			Misses:        res.DAG.ResidentMisses,
			RemoteSteals:  res.Counters.RemoteSteals,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		blind := rows[i].Cell(dag.PolicyBlind)
		aware := rows[i].Cell(dag.PolicyDataAware)
		if aware.MakespanMS > 0 {
			rows[i].AwareSpeedup = blind.MakespanMS / aware.MakespanMS
		}
		if blind.MigratedBytes > 0 {
			rows[i].BytesSaved = 100 * float64(blind.MigratedBytes-aware.MigratedBytes) /
				float64(blind.MigratedBytes)
		}
	}
	return rows, nil
}

// RenderDAG formats the dataflow study.
func RenderDAG(rows []DAGRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataflow DAG — data-aware vs locality-blind placement on tiled linear algebra (DistWS)\n")
	fmt.Fprintf(&b, "%10s %6s %11s %14s %12s %9s %9s %9s\n",
		"App", "Tasks", "Policy", "Makespan(ms)", "Migrated(KB)", "Hit%", "Misses", "RemSteal")
	for _, row := range rows {
		for _, c := range row.Cells {
			fmt.Fprintf(&b, "%10s %6d %11s %14.3f %12.1f %9.1f %9d %9d\n",
				row.App, row.Tasks, c.Policy.String(), c.MakespanMS,
				float64(c.MigratedBytes)/1024, c.ResidencyRate, c.Misses, c.RemoteSteals)
		}
		fmt.Fprintf(&b, "%10s %6s %11s aware speedup = %.2fx, bytes saved = %.1f%%\n",
			row.App, "", "", row.AwareSpeedup, row.BytesSaved)
	}
	return b.String()
}
