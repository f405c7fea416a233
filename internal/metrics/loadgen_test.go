package metrics

import (
	"slices"
	"strings"
	"testing"
)

func TestLatencySummary(t *testing.T) {
	mean, p50, p99, max := LatencySummary([]float64{4, 1, 3, 2})
	if mean != 2.5 || p50 != 2 || max != 4 {
		t.Errorf("summary = %v %v %v %v", mean, p50, p99, max)
	}
	if m, _, _, _ := LatencySummary(nil); m != 0 {
		t.Error("empty sample should summarize to zeros")
	}
}

// A quantile is the sample at index ⌊p·(n−1)⌋ of the sorted input, and
// the input is sorted in place.
func TestLatencySummaryQuantiles(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, tc := range []struct {
		name                string
		in                  []float64
		mean, p50, p99, max float64
	}{
		{"single sample", []float64{7}, 7, 7, 7, 7},
		{"hundred samples", hundred, 50.5, 50, 99, 100},
		{"ties", []float64{5, 1, 5, 5}, 4, 5, 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mean, p50, p99, max := LatencySummary(tc.in)
			if mean != tc.mean || p50 != tc.p50 || p99 != tc.p99 || max != tc.max {
				t.Errorf("summary = (%v, %v, %v, %v), want (%v, %v, %v, %v)",
					mean, p50, p99, max, tc.mean, tc.p50, tc.p99, tc.max)
			}
			if !slices.IsSorted(tc.in) {
				t.Errorf("input left unsorted: %v", tc.in)
			}
		})
	}
}

func TestWriteLoadGen(t *testing.T) {
	var b strings.Builder
	WriteLoadGen(&b, []LoadGenRow{
		{World: "w0", Ticks: 100, TickRate: 10, TargetRate: 10, Queries: 500, QPS: 50, MeanMicros: 3, P50Micros: 2, P99Micros: 9, MaxMicros: 12},
		{World: "w1", Ticks: 90, TickRate: 9, TargetRate: 10, Queries: 400, QPS: 40, MeanMicros: 4, P50Micros: 3, P99Micros: 11, MaxMicros: 20, Errors: 1},
	})
	out := b.String()
	for _, w := range []string{"world", "w0", "w1", "TOTAL", "190", "900", "1"} {
		if !strings.Contains(out, w) {
			t.Errorf("table missing %q:\n%s", w, out)
		}
	}
}

// The command and subscription column groups appear only when some row
// has activity — or errors — of that kind, every line carries the same
// groups, and the TOTAL line sums each group it shows.
func TestWriteLoadGenOptionalColumns(t *testing.T) {
	base := func() []LoadGenRow {
		return []LoadGenRow{
			{World: "w0", Ticks: 100, TickRate: 10, TargetRate: 10, Queries: 500, QPS: 50},
			{World: "w1", Ticks: 90, TickRate: 9, TargetRate: 10, Queries: 400, QPS: 40, Errors: 1},
		}
	}
	commands := func(r []LoadGenRow) {
		r[0].Commands, r[0].CPS, r[0].CmdP50Micros, r[0].CmdP99Micros = 20, 2, 5, 9
		r[1].Commands, r[1].CPS, r[1].CmdErrors = 30, 3, 1
	}
	subscribers := func(r []LoadGenRow) {
		r[0].Subscribers, r[0].Pushes, r[0].PushRate, r[0].PollEquiv = 4, 40, 4, 400
		r[1].Subscribers, r[1].Pushes, r[1].PushRate, r[1].PollEquiv = 2, 18, 1.8, 180
	}
	queryTotal := []string{"TOTAL", "190", "19.0", "900", "90", "1"}
	for _, tc := range []struct {
		name       string
		edit       func([]LoadGenRow)
		cmds, subs bool
		// total is the TOTAL line's cells after the query columns'.
		total []string
	}{
		{name: "queries only", edit: func([]LoadGenRow) {}},
		{name: "commands", edit: commands, cmds: true, total: []string{"50", "5", "1"}},
		{name: "command errors only", edit: func(r []LoadGenRow) { r[1].CmdErrors = 2 }, cmds: true, total: []string{"0", "0", "2"}},
		{name: "subscribers", edit: subscribers, subs: true, total: []string{"6", "58", "5.8", "580", "0"}},
		{name: "subscriber errors only", edit: func(r []LoadGenRow) { r[0].SubErrors = 3 }, subs: true, total: []string{"0", "0", "0.0", "0", "3"}},
		{
			name: "commands and subscribers",
			edit: func(r []LoadGenRow) { commands(r); subscribers(r) },
			cmds: true, subs: true,
			total: []string{"50", "5", "1", "6", "58", "5.8", "580", "0"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := base()
			tc.edit(rows)
			var b strings.Builder
			WriteLoadGen(&b, rows)
			out := b.String()
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			if len(lines) != len(rows)+2 {
				t.Fatalf("%d lines, want header, %d rows and TOTAL:\n%s", len(lines), len(rows), out)
			}
			if got := strings.Contains(lines[0], "cmderrs"); got != tc.cmds {
				t.Errorf("command columns shown = %v, want %v:\n%s", got, tc.cmds, out)
			}
			if got := strings.Contains(lines[0], "suberrs"); got != tc.subs {
				t.Errorf("subscription columns shown = %v, want %v:\n%s", got, tc.subs, out)
			}
			cells := 11
			if tc.cmds {
				cells += 5
			}
			if tc.subs {
				cells += 5
			}
			for i, line := range lines[1 : len(lines)-1] {
				if n := len(strings.Fields(line)); n != cells {
					t.Errorf("row %d has %d cells, want %d: %q", i, n, cells, line)
				}
			}
			want := append(slices.Clone(queryTotal), tc.total...)
			if got := strings.Fields(lines[len(lines)-1]); !slices.Equal(got, want) {
				t.Errorf("TOTAL cells = %q, want %q", got, want)
			}
		})
	}
}
