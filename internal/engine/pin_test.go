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
// Re-recorded for checkpoint format version 5, which stamps a pending
// command for the next tick and applies it at that tick's commit instead
// of the next tick's start; the layout is version 4's. No pinned world
// submits a command, so no world moved: only the version tag did, and the
// tick-50 version-4 stream of each pinned world upgrades to exactly these
// bytes (TestUpgradeMatchesPin keeps one of them).
var checkpointPins = map[string]string{
	"battle":                          "53f75092282d8e99cde4a2461418a8c739b3c0e521023d05a1502fcea9c0e169",
	"zoo/or-condition-residual":       "cbe9e4c74b9374cac22270bf4a757fc9213e544e22bef81019b3ae54d63df39f",
	"zoo/asymmetric-range":            "3147ad7efb39b1ffb82f7e628987e26892f1ad06ac485a99290f5eaf327801a4",
	"zoo/one-sided-minmax-falls-back": "44a81f5647aa72f7992bd150885b1d32bfe5040aee213338b7a88eb1aa0c5828",
	"zoo/neq-partition-area-action":   "17988f7b76bd9ca870f0e2c3de94b76ecae29c8dbc5515c84d8b1836fe39e031",
	"zoo/mixed-output-classes":        "3284194d95d380ae60782e4f469dda442647e92ccdd7c4435a8ef76a67ed0d3e",
	"zoo/nested-aggregate-args":       "41f99c2b19adf1873e9d30eb87cb7accb5691ece8b0dcd2f1e61f23e8c61919a",
	"zoo/u-only-guard":                "e8d79c7a86b48008b74f7c7e5812bcda4da816393d345ede02bd9be48ad8b32a",
	"zoo/random-in-action-value":      "b0d922a898097ed810557fa7e818c6a2ae5c175cb22f7f51eea3e9946207ba8f",
	"zoo/global-extrema":              "3869c6603138f7800ebe8691f39e9a1ac75f53766bd6bc5e60861c6311c2b8fc",
	"zoo/multi-conjunct-greedy":       "1ad04b4265baf1813cc093cc97c7a541b03b10243cdd2acb65d3884a8deaf22d",
	"zoo/empty-world-guards":          "11cd838b66463867fdfdc25ffa38dd126c2aa18294e5300a89b5dbfdf66930c6",
	"zoo/shared-membership":           "dcf0f665da6c356085d79953f40388f083ff9a2a58905c2587b13ca853c4778b",
	"zoo/repeated-calls":              "57b6a75c610ffa2c35d811b701dfd34681cf7548ff3f436a0b108294d6f3bc93",
	"zoo/carried-answers":             "f150e8fb08e627ab1d90a67d6d5c56916bf0da06f92664a9be8cb4c0284a1713",
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
