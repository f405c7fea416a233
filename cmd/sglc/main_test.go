package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
)

// Each legacy fixture upgrades through the -upgrade path and reopens:
// version 1 with -script naming the battle script it ran, versions 2
// through 4 from their embedded scripts. A version-1 file without -script fails and
// leaves no output behind.
func TestUpgradeFileReopens(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "battle.sgl")
	if err := os.WriteFile(script, []byte(game.Script), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fixture, script string
		tick            int64
	}{
		{"v1.ckpt", script, 6},
		{"v2.ckpt", "", 10},
		{"v3.ckpt", "", 10},
		{"v4.ckpt", "", 10},
	} {
		in := filepath.Join("..", "..", "internal", "engine", "testdata", tc.fixture)
		out := filepath.Join(dir, tc.fixture+".v5")
		if err := upgradeFile(in, out, tc.script); err != nil {
			t.Fatalf("%s: %v", tc.fixture, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := engine.Open(bytes.NewReader(data), game.NewMechanics(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: upgraded file does not open: %v", tc.fixture, err)
		}
		if sess.Tick() != tc.tick {
			t.Errorf("%s: reopened at tick %d, want %d", tc.fixture, sess.Tick(), tc.tick)
		}
		if err := sess.Step(2); err != nil {
			t.Fatal(err)
		}
	}
	in := filepath.Join("..", "..", "internal", "engine", "testdata", "v1.ckpt")
	out := filepath.Join(dir, "noscript.v5")
	if err := upgradeFile(in, out, ""); err == nil || !strings.Contains(err.Error(), "program") {
		t.Fatalf("v1 without -script: err = %v, want one asking for the program", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a failed upgrade left %s behind", out)
	}
}
