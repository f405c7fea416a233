// The cluster experiment's table: gateway scale-out measured with the
// stock load generator. Each row is one fleet size driven with an
// identical per-world workload; linear tick throughput across rows is
// the scale-out claim — the gateway adds routing, and routing must not
// become the bottleneck. Produced by cluster.Experiment and rendered by
// WriteCluster.

package metrics

import (
	"fmt"
	"io"
)

// ClusterRow aggregates one fleet configuration's load-generator run.
type ClusterRow struct {
	// Nodes is the fleet size behind the gateway; Worlds the session
	// count the run hosted across it.
	Nodes  int
	Worlds int
	// Ticks is the fleet-wide tick total over the window; TicksPerSec
	// the rate that implies.
	Ticks       int64
	TicksPerSec float64
	// QPS is the fleet-wide spectator-query throughput, and CPS the
	// actor-command throughput (0 when the run had no actors).
	QPS float64
	CPS float64
	// Errors counts failed queries plus rejected commands, fleet-wide.
	// Anything non-zero voids the row.
	Errors int
}

// WriteCluster renders the scale-out table plus a speedup column
// against the first row (the single-node baseline).
func WriteCluster(w io.Writer, rows []ClusterRow) {
	fmt.Fprintf(w, "%-6s %7s %10s %10s %10s %8s %8s\n",
		"nodes", "worlds", "ticks", "ticks/s", "queries/s", "cmd/s", "speedup")
	var base float64
	for i, row := range rows {
		if i == 0 {
			base = row.TicksPerSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = row.TicksPerSec / base
		}
		errs := ""
		if row.Errors > 0 {
			errs = fmt.Sprintf("  (%d errors)", row.Errors)
		}
		fmt.Fprintf(w, "%-6d %7d %10d %10.1f %10.0f %8.0f %7.2fx%s\n",
			row.Nodes, row.Worlds, row.Ticks, row.TicksPerSec, row.QPS, row.CPS, speedup, errs)
	}
}
