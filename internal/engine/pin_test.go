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

// checkpointPins are SHA-256 digests of the checkpoint stream at tick 50,
// recorded at commit c3aaed9 (the last commit whose executor and index
// probes walked the AST): battle at seed 42 with 500 units, every zoo
// script at seed 42 with 64 units, all serial Indexed. The differential
// contracts compare two paths of one build, so a change that moves both
// the same way passes them all; these pins compare across commits. A
// legitimate semantic or format change re-records them with
// SGL_PRINT_PINS=1 and says so in CHANGES.md.
var checkpointPins = map[string]string{
	"battle":                          "fc12a9c4e594e598c6b5a764c4cc5d438b040f6f20c9ba5f92be799833bd7c61",
	"zoo/or-condition-residual":       "bdf388c94ba6b42a7e0f5fe30fd0588bbbef6899c5cbbac87b75f81fdc825df3",
	"zoo/asymmetric-range":            "967545cd3d796de022010d3306d5cac1b20b3ea44c64f31a8dc277f7d62460b9",
	"zoo/one-sided-minmax-falls-back": "43278cf95a999f8ebd0f4f3e84e8071e53f92ed14a1a72f9a3e26a41a90a9df4",
	"zoo/neq-partition-area-action":   "18fa5b09b45d2bddfdb3020beffccfd7045ba4bf299dce494719e41b4571ffd7",
	"zoo/mixed-output-classes":        "d6271cfa0e0b62a315f09f5f2293db634fbe11f28451d9c17260319b77474b88",
	"zoo/nested-aggregate-args":       "3fbbee8e79f82a395a85120f4ef852fccd80329bc27cf42cf50237faf2433929",
	"zoo/u-only-guard":                "b4ee10966db015f36eb2c378fe278f4c25fbb3d3edc10c4a97e236c74165d4ef",
	"zoo/random-in-action-value":      "6a941996081546802bebff966de753fb97c86aac64043f68414e6f324327e87a",
	"zoo/global-extrema":              "21f45929a7b386b1b5f0fb02226489bd5ef018938365320f49c3fbd5ead0992b",
	"zoo/multi-conjunct-greedy":       "359b215a198b4abf7b3e9c0c7b34f3c0fc6f35cc3258317e5d53b86d64f428a9",
	"zoo/empty-world-guards":          "c10e934b9559d7199a0d09a53687501f1fcffbef4f92c93635c817cd3e42bf03",
	// Recorded at d3536f7 (before membership groups), with the zoo entry
	// added to that tree: sharing one membership's structures moved no bit.
	"zoo/shared-membership": "bcfd609a2a60361d33fa9ae2b33ed180fed996fedc317a08845e99567e15de39",
	// Recorded at 7c6af24 (before call classes and per-component record
	// fields), with the zoo entry added to that tree: answering a repeated
	// call from its memo moved no bit.
	"zoo/repeated-calls": "d20a94794062fa1be8b0ba1ccba8bc667cceb4f27daa1840c46c0921c1356cca",
	// Recorded at 14366df (before answers carried across ticks, sweeps
	// stopped resetting their trees and nearest outputs shared a search),
	// with the zoo entry added to that tree.
	"zoo/carried-answers": "a9f3965478175167385e9bd9d75159cdc6770c7af2f8bcbcf48afc7ad9dcf887",
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
