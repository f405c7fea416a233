package engine

import "testing"

// Hooks for the external tests of this directory (package engine_test),
// which drive worlds through the server and so cannot reach the
// unexported test options or the query zoo.

// RebuildOnly puts o on the rebuild seam (rebuildOnly).
func RebuildOnly(o *Options) { rebuildOnly(o) }

// AssertRebuilt fails unless e maintained nothing over its run
// (assertRebuilt).
func AssertRebuilt(t testing.TB, e *Engine) { assertRebuilt(t, e) }

// SetMidTick runs fn between each tick's decision phase and its commit,
// while the session's writer lock is held (Options.midTick).
func SetMidTick(o *Options, fn func()) { o.midTick = func(*Engine) { fn() } }

// ZooQuery is one entry of the query zoo: At and Unit say which probe
// form its kind takes (neither: the world's).
type ZooQuery struct {
	Name, Src string
	Args      []float64
	At, Unit  bool
}

// QueryZoo returns the query zoo (queryZoo).
func QueryZoo() []ZooQuery {
	out := make([]ZooQuery, len(queryZoo))
	for i, zq := range queryZoo {
		out[i] = ZooQuery{Name: zq.name, Src: zq.src, Args: zq.args, At: zq.kind == qAt, Unit: zq.kind == qUnit}
	}
	return out
}

// QueryCommands returns the command stream the query differentials
// submit before the step to each tick (queryCommands).
func QueryCommands() map[int][]Command { return queryCommands }
