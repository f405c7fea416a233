package metrics

import (
	"fmt"
	"io"
	"sort"
)

// FanoutQuery is the observation query the load generator's spectators
// serve: a windowed divisible aggregate, the bread-and-butter spectator
// question ("how much is happening here?"), answerable by the range tree
// or by a scan. Exported so the server's load generator and the
// repository benchmark drive the same query.
const FanoutQuery = `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`

// LoadGenRow is one world's worth of load-generator results: how fast its
// clock ran and what the spectator queries cost, over the measurement
// window. Produced by the internal/server load generator and rendered by
// WriteLoadGen.
type LoadGenRow struct {
	World string
	// Ticks the world advanced during the window, and the rate that
	// implies against the configured target (0 target = uncapped).
	Ticks      int64
	TickRate   float64
	TargetRate float64
	// Spectator-query accounting: completed queries, their throughput,
	// and client-observed latency quantiles in microseconds.
	Queries    int
	QPS        float64
	MeanMicros float64
	P50Micros  float64
	P99Micros  float64
	MaxMicros  float64
	Errors     int
	// Actor-command accounting: accepted command submissions, their
	// throughput, and client-observed latency quantiles in microseconds
	// (all zero when the run had no actors).
	Commands     int
	CPS          float64
	CmdP50Micros float64
	CmdP99Micros float64
	CmdErrors    int
	// Push-subscription accounting (all zero when the run had no
	// subscribers): live SSE subscribers, answer events they received,
	// their rate, and the polls that many subscribers would have issued
	// for the same freshness — one per subscriber per tick. Pushes ≪
	// PollEquiv is the point of maintained answers + push delivery.
	Subscribers int
	Pushes      int
	PushRate    float64
	PollEquiv   int64
	SubErrors   int
}

// LatencySummary reduces a sample of latencies (microseconds) to the
// quantiles LoadGenRow reports. The input is sorted in place.
func LatencySummary(micros []float64) (mean, p50, p99, max float64) {
	if len(micros) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(micros)
	sum := 0.0
	for _, v := range micros {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(micros)-1))
		return micros[i]
	}
	return sum / float64(len(micros)), q(0.50), q(0.99), micros[len(micros)-1]
}

// WriteLoadGen renders the per-world load-generator table plus a totals
// line, in the style of the other experiment tables. The actor-command
// columns appear only when some row actually submitted commands.
func WriteLoadGen(w io.Writer, rows []LoadGenRow) {
	withCmds, withSubs := false, false
	for _, r := range rows {
		if r.Commands > 0 || r.CmdErrors > 0 {
			withCmds = true
		}
		if r.Subscribers > 0 || r.SubErrors > 0 {
			withSubs = true
		}
	}
	fmt.Fprintf(w, "%-14s %8s %10s %10s %9s %9s %10s %10s %10s %10s %7s",
		"world", "ticks", "ticks/s", "target", "queries", "q/s", "mean µs", "p50 µs", "p99 µs", "max µs", "errors")
	if withCmds {
		fmt.Fprintf(w, " %8s %8s %10s %10s %8s", "cmds", "cmd/s", "cmd p50 µs", "cmd p99 µs", "cmderrs")
	}
	if withSubs {
		fmt.Fprintf(w, " %6s %8s %8s %9s %8s", "subs", "pushes", "push/s", "polls≡", "suberrs")
	}
	fmt.Fprintln(w)
	var ticks, pollEquiv int64
	var queries, errs, cmds, cmdErrs, subs, pushes, subErrs int
	var qps, rate, cps, pushRate float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10.1f %10.1f %9d %9.0f %10.1f %10.1f %10.1f %10.1f %7d",
			r.World, r.Ticks, r.TickRate, r.TargetRate, r.Queries, r.QPS,
			r.MeanMicros, r.P50Micros, r.P99Micros, r.MaxMicros, r.Errors)
		if withCmds {
			fmt.Fprintf(w, " %8d %8.0f %10.1f %10.1f %8d",
				r.Commands, r.CPS, r.CmdP50Micros, r.CmdP99Micros, r.CmdErrors)
		}
		if withSubs {
			fmt.Fprintf(w, " %6d %8d %8.1f %9d %8d",
				r.Subscribers, r.Pushes, r.PushRate, r.PollEquiv, r.SubErrors)
		}
		fmt.Fprintln(w)
		ticks += r.Ticks
		queries += r.Queries
		errs += r.Errors
		qps += r.QPS
		rate += r.TickRate
		cmds += r.Commands
		cps += r.CPS
		cmdErrs += r.CmdErrors
		subs += r.Subscribers
		pushes += r.Pushes
		pushRate += r.PushRate
		pollEquiv += r.PollEquiv
		subErrs += r.SubErrors
	}
	fmt.Fprintf(w, "%-14s %8d %10.1f %10s %9d %9.0f %10s %10s %10s %10s %7d",
		"TOTAL", ticks, rate, "", queries, qps, "", "", "", "", errs)
	if withCmds {
		fmt.Fprintf(w, " %8d %8.0f %10s %10s %8d", cmds, cps, "", "", cmdErrs)
	}
	if withSubs {
		fmt.Fprintf(w, " %6d %8d %8.1f %9d %8d", subs, pushes, pushRate, pollEquiv, subErrs)
	}
	fmt.Fprintln(w)
}
