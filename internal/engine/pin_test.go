package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// checkpointPins are SHA-256 digests of the checkpoint stream at tick 50:
// battle at seed 42 with 500 units, every zoo script at seed 42 with 64
// units, all serial Indexed. The differential contracts compare two paths
// of one build, so a change that moves both the same way passes them all;
// these pins compare across commits. A legitimate semantic or format
// change re-records them with SGL_PRINT_PINS=1 and says so in CHANGES.md.
//
// Re-recorded for checkpoint format version 4, which drops the
// MaintainTicks and DirtyRows counters from the stats section. Every pin
// runs with Incremental off, where both were zero, so no world moved: the
// tick-50 version-3 stream of each pinned world upgrades to exactly these
// bytes (TestUpgradeMatchesPin keeps one of them).
var checkpointPins = map[string]string{
	"battle":                          "1dd309db7bde34e42f95ed371a526d004a9a8748c168e941882daaa3a074055d",
	"zoo/or-condition-residual":       "8f6f6a41cff92be341a863bfc4cd8703e11c486aaade83ae5e2155cc9f674f89",
	"zoo/asymmetric-range":            "595e5427e751b7d8eef58d422ef0d0aec9a16338c80827fe76f4a2fc65776685",
	"zoo/one-sided-minmax-falls-back": "abbfbcb51a4fed67d7030d14f20257f60e70784f83b210b944421d62afae11ca",
	"zoo/neq-partition-area-action":   "24a84f7bf99e1fc4582d3518f9a6e640f1648bd3c19580aa816b2ffe9e3edda9",
	"zoo/mixed-output-classes":        "2362defdaa48fc1e9556cb885e9efe25564297d3f346445edc57dc8d38cebbd6",
	"zoo/nested-aggregate-args":       "5f27bf5430e5fc5e7da37bd635af6fac20335ac82f0ce9a5c5fa716917fb809f",
	"zoo/u-only-guard":                "627d4aed6795c476263b05fdc0928da44a04b8b9ecbb64ab3ece418a0ed63ac1",
	"zoo/random-in-action-value":      "7b22b54fb7c650ccd1dd21a7428756dabd18dd62890678ff56419b1e95ca5d39",
	"zoo/global-extrema":              "fdea4689fe0da98c00446652ce0bf40c5c8f27a09aef6d240e775fb479c2091e",
	"zoo/multi-conjunct-greedy":       "43bceaf4c87b49953dc811be055a73ffb191adfd2abd9d216090e9778a4d867f",
	"zoo/empty-world-guards":          "1113713fa02b98288c513159abd68ac26bac1a1535c9dc5593015207d300363c",
	"zoo/shared-membership":           "8ebcb6a341f152d5317452fe5d7a93b4e7ed5e4a1933ebe2440c861c47b79a60",
	"zoo/repeated-calls":              "986f0e3e59982f932c420b72edb83734c3b8e2404d95457fd713c5ed0f8e3249",
	"zoo/carried-answers":             "da525b396edbf8ad27489af1699f9d78a381a620b7162f1d4539f6f07ad080b4",
}

func TestCheckpointPinsAcrossCommits(t *testing.T) {
	type world struct {
		name  string
		prog  *sem.Program
		units int
	}
	worlds := []world{{"battle", battleProg(t), 500}}
	for _, zp := range exec.Zoo {
		worlds = append(worlds, world{"zoo/" + zp.Name, compileZoo(t, zp.Src), 64})
	}
	for _, w := range worlds {
		e := newEngine(t, w.prog, w.units, Indexed, 42, func(o *Options) { o.Workers = 1 })
		if err := e.Run(50); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if os.Getenv("SGL_PRINT_PINS") != "" {
			t.Logf("\t%q: %q,", w.name, got)
			continue
		}
		if want, ok := checkpointPins[w.name]; !ok {
			t.Errorf("%s: no recorded pin (got %s)", w.name, got)
		} else if got != want {
			t.Errorf("%s: checkpoint at tick 50 hashes to %s, pinned %s", w.name, got, want)
		}
	}
}
