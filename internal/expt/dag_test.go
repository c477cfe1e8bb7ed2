package expt

import (
	"testing"

	"distws/internal/apps/suite"
	"distws/internal/dag"
)

func dagRunner(workers int) *Runner {
	r := New(suite.Small, 1)
	r.Workers = workers
	return r
}

// TestDAGStudyDataAwareWinsOnCholesky pins the exhibit's acceptance
// claim: at seed 1 on the paper cluster, data-aware placement beats
// locality-blind on tiled Cholesky on BOTH makespan and migrated bytes.
func TestDAGStudyDataAwareWinsOnCholesky(t *testing.T) {
	rows, err := dagRunner(0).DAGStudy()
	if err != nil {
		t.Fatal(err)
	}
	var chol *DAGRow
	for i := range rows {
		if rows[i].App == "cholesky" {
			chol = &rows[i]
		}
	}
	if chol == nil {
		t.Fatal("no cholesky row in DAG study")
	}
	blind, aware := chol.Cell(dag.PolicyBlind), chol.Cell(dag.PolicyDataAware)
	if aware.MakespanMS >= blind.MakespanMS {
		t.Fatalf("data-aware makespan %.3fms !< blind %.3fms", aware.MakespanMS, blind.MakespanMS)
	}
	if aware.MigratedBytes >= blind.MigratedBytes {
		t.Fatalf("data-aware migrated %d bytes !< blind %d", aware.MigratedBytes, blind.MigratedBytes)
	}
}

// TestDAGStudyDeterministic pins that the exhibit renders byte-identically
// regardless of the runner's pool width — the dag-parity gate's axis.
func TestDAGStudyDeterministic(t *testing.T) {
	seq, err := dagRunner(1).DAGStudy()
	if err != nil {
		t.Fatal(err)
	}
	par, err := dagRunner(8).DAGStudy()
	if err != nil {
		t.Fatal(err)
	}
	if RenderDAG(seq) != RenderDAG(par) {
		t.Fatalf("DAG study diverged across pool widths:\n--- workers=1\n%s\n--- workers=8\n%s",
			RenderDAG(seq), RenderDAG(par))
	}
}
