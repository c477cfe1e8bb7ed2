// Cluster-simulator walkthrough: compare all five scheduling policies on
// one irregular workload at the paper's 16×8 = 128-worker scale, without
// needing 16 machines. This is how the repository regenerates the paper's
// figures; see cmd/distws-experiments for the full evaluation.
//
//	go run ./examples/clustersim
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"distws/internal/apps/suite"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func main() {
	// Delaunay mesh generation: the paper's best case (31% at 64 workers).
	app, err := suite.ByName("dmg", suite.Small, 42)
	if err != nil {
		log.Fatal(err)
	}
	cl := topology.Paper() // 16 places × 8 workers, InfiniBand-class network

	g, err := app.Trace(cl.Places)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s — %d tasks, %.0f%% locality-flexible, %.1fs sequential (virtual)\n\n",
		app.Name(), g.NumTasks(), 100*g.FlexibleFraction(), float64(g.Sequential())/1e9)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tspeedup\tremote steals\tmigrated\tmessages\tutilization disparity")
	for _, k := range sched.Kinds() {
		res, err := sim.Run(g, cl, k, sim.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		minU, maxU := 100.0, 0.0
		for _, u := range res.Utilization {
			if u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		fmt.Fprintf(w, "%s\t%.1f\t%d\t%d\t%d\t%.1f%%\n",
			k, res.Speedup(), res.Counters.RemoteSteals,
			res.Counters.TasksMigrated, res.Counters.Messages, maxU-minU)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n(X10WS cannot move work across places; DistWS steals only the flexible tasks.)")
}
