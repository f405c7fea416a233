package metrics

import (
	"strconv"
	"strings"
	"testing"
)

// WriteCluster's speedup column is each row's tick rate over the first
// row's, a row with errors is flagged as void, and a baseline that never
// ticked yields a zero speedup rather than Inf or NaN.
func TestWriteCluster(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []ClusterRow
		// want holds, per row line, how the line ends: the speedup cell
		// and any error flag after it.
		want []string
	}{
		{
			name: "speedup against the first row",
			rows: []ClusterRow{
				{Nodes: 1, Worlds: 8, Ticks: 400, TicksPerSec: 80, QPS: 160, CPS: 8},
				{Nodes: 2, Worlds: 16, Ticks: 790, TicksPerSec: 158, QPS: 310, CPS: 16},
				{Nodes: 4, Worlds: 32, Ticks: 1200, TicksPerSec: 240, QPS: 600, CPS: 32},
			},
			want: []string{"1.00x", "1.98x", "3.00x"},
		},
		{
			name: "errors void a row",
			rows: []ClusterRow{
				{Nodes: 1, Worlds: 4, Ticks: 100, TicksPerSec: 20},
				{Nodes: 2, Worlds: 8, Ticks: 180, TicksPerSec: 36, Errors: 3},
			},
			want: []string{"1.00x", "1.80x  (3 errors)"},
		},
		{
			name: "zero baseline",
			rows: []ClusterRow{
				{Nodes: 1, Worlds: 4},
				{Nodes: 2, Worlds: 8, Ticks: 50, TicksPerSec: 10},
			},
			want: []string{"0.00x", "0.00x"},
		},
		{name: "no rows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			WriteCluster(&b, tc.rows)
			lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
			if h := strings.Fields(lines[0]); len(h) != 7 || h[0] != "nodes" || h[6] != "speedup" {
				t.Fatalf("header = %q", lines[0])
			}
			lines = lines[1:]
			if len(lines) != len(tc.want) {
				t.Fatalf("%d row lines, want %d:\n%s", len(lines), len(tc.want), b.String())
			}
			for i, line := range lines {
				if f := strings.Fields(line); len(f) < 7 || f[0] != strconv.Itoa(tc.rows[i].Nodes) {
					t.Fatalf("row %d = %q, want 7 cells starting with %d nodes", i, line, tc.rows[i].Nodes)
				}
				if !strings.HasSuffix(line, tc.want[i]) {
					t.Errorf("row %d = %q, want suffix %q", i, line, tc.want[i])
				}
			}
		})
	}
}
