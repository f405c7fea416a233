package sgl

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/interp"
)

// FuzzCompileScript asserts the full front end — lexer, parser, semantic
// checker — never panics on arbitrary source against the battle schema,
// that anything it accepts survives a print → recompile round trip (the
// compiled form of the parser fuzz target's property), and that whatever
// compiles evaluates the same compiled as interpreted: the oracle
// comparison of TestCompiledMatchesInterpreted on inputs nobody wrote.
func FuzzCompileScript(f *testing.F) {
	for _, zp := range exec.Zoo {
		f.Add(zp.Src)
	}
	f.Add(BattleScript)
	f.Add(game.PatrolScript)
	schema, consts := BattleSchema(), BattleConsts()
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := CompileScript(src, schema, consts)
		if err != nil {
			return
		}
		printed := prog.Script.String()
		if _, err := CompileScript(printed, schema, consts); err != nil {
			t.Fatalf("printed form of a valid program does not recompile: %v\n%s", err, printed)
		}
		compiledMatchesInterpreted(t, prog)
	})
}

// fuzzRows are a few environment rows salted with the floats arithmetic
// goes wrong on: both zeros, NaN, both infinities, negatives, magnitudes
// that overflow. Keys stay the row ordinals.
func fuzzRows(schema *Schema) *Table {
	salt := []float64{0, math.Copysign(0, -1), 1, -1, 2, -3, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 7}
	st := rng.NewStream(rng.New(99), 1)
	env := NewTable(schema, 6)
	for i := 0; i < 6; i++ {
		row := make([]float64, schema.NumAttrs())
		for c := range row {
			if st.Intn(3) == 0 {
				row[c] = salt[st.Intn(len(salt))]
			} else {
				row[c] = float64(st.Intn(7) - 2)
			}
		}
		row[schema.KeyCol()] = float64(i)
		env.Append(row)
	}
	return env
}

// compiledMatchesInterpreted holds a checked program's compiled forms
// against the tree-walking interpreter, bit for bit. Definitions are
// compared term by term. The plan is compared through the effect rows it
// emits: every cell of an effect row is one term's value (nothing is
// folded yet), so the compiled executor and the interpreter must emit the
// same multiset of rows — in different orders, unit-major against
// Apply-major, hence the sort. sem admits a few definition terms the
// walker rejects at run time (records inside definitions); where the
// oracle has no opinion the compiled side only has to not fail.
func compiledMatchesInterpreted(t *testing.T, prog *Program) {
	env := fuzzRows(prog.Schema)
	r := rng.New(99).Tick(3)

	checkDef := func(params []string, dl interp.DefLike, conds []ast.Cond, terms []ast.Term) {
		c := expr.New(prog, expr.Def{Params: params})
		condFns, err := c.Conds(conds)
		if err != nil {
			t.Fatalf("a checked definition does not compile: %v", err)
		}
		termFns, err := c.Nums(terms)
		if err != nil {
			t.Fatalf("a checked definition does not compile: %v", err)
		}
		fr := &expr.Frame{R: r}
		for ui, unit := range env.Rows {
			for ti, target := range env.Rows {
				args := make([]float64, len(params)-1)
				for i := range args {
					args[i] = env.Rows[(ui+ti+i)%env.Len()][(ui+2*i+1)%len(unit)]
				}
				fr.Unit, fr.Args, fr.Target = unit, args, target
				for i, cond := range conds {
					got := condFns[i](fr)
					if want, err := interp.EvalDefCond(cond, dl, unit, args, target, prog, r); err == nil && got != want {
						t.Fatalf("condition %s: compiled %v, interpreted %v", cond, got, want)
					}
				}
				for i, term := range terms {
					got := termFns[i](fr)
					if want, err := interp.EvalDefTermWith(term, dl, unit, args, target, prog, r); err == nil && math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("term %s: compiled %#x, interpreted %#x", term, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
	for _, def := range prog.Script.Aggs {
		var conds []ast.Cond
		if def.Where != nil {
			conds = append(conds, def.Where)
		}
		var terms []ast.Term
		for _, out := range def.Outputs {
			if out.Arg != nil {
				terms = append(terms, out.Arg)
			}
		}
		checkDef(def.Params, interp.DefParams(def), conds, terms)
	}
	for _, def := range prog.Script.Acts {
		var conds []ast.Cond
		if def.Where != nil {
			conds = append(conds, def.Where)
		}
		var terms []ast.Term
		for _, set := range def.Sets {
			terms = append(terms, set.Value)
		}
		checkDef(def.Params, interp.DefParams(def), conds, terms)
	}
	// Every definition classifies and compiles (NewAnalyzer panics if not).
	exec.NewAnalyzer(prog, game.Categoricals())

	prov := interp.NewNaive(prog, env, r)
	var compiled [][]float64
	plan, err := algebra.Translate(prog)
	if err != nil {
		t.Fatalf("a checked program does not translate: %v", err)
	}
	err = algebra.NewExecutor(prog, algebra.Optimize(plan), env, prov, r).Effects(func(row []float64) {
		compiled = append(compiled, row)
	})
	if err != nil {
		t.Fatalf("a checked program does not execute compiled: %v", err)
	}
	interpreted, ok := interpretedEffects(prog, env, prov, r)
	if !ok {
		return
	}
	if len(compiled) != len(interpreted) {
		t.Fatalf("compiled plan emitted %d effect rows, interpreter %d", len(compiled), len(interpreted))
	}
	a, b := sortedRowBits(compiled), sortedRowBits(interpreted)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("effect rows differ between the compiled plan and the interpreter (sorted position %d)", i)
		}
	}
}

// interpretedEffects runs every unit's script through the interpreter.
// ok is false when the walker rejects the program at run time — an error,
// or the naive provider's panic on one.
func interpretedEffects(prog *Program, env *Table, prov interp.Provider, r rng.TickSource) (rows [][]float64, ok bool) {
	defer func() {
		if recover() != nil {
			rows, ok = nil, false
		}
	}()
	ev := interp.New(prog, env, prov, r)
	for _, unit := range env.Rows {
		if err := ev.RunUnit(unit, func(row []float64) { rows = append(rows, row) }); err != nil {
			return nil, false
		}
	}
	return rows, true
}

// sortedRowBits renders rows as their big-endian bit patterns, sorted.
func sortedRowBits(rows [][]float64) [][]byte {
	out := make([][]byte, len(rows))
	for i, row := range rows {
		for _, v := range row {
			out[i] = binary.BigEndian.AppendUint64(out[i], math.Float64bits(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}
