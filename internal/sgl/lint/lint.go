// Package lint is the SGL diagnostics engine: a multi-rule static-analysis
// pass over parsed and checked scripts producing structured, positioned,
// coded diagnostics. One engine backs the sglvet CLI, sglc -vet, and the
// server's create-from-script / query / subscribe compile paths.
//
// Codes come in two families:
//
//   - SGL0xx — correctness. 001–004 are compile-blocking (the script is
//     rejected by the parser or by sem; lint re-reports them with a code
//     and a precise position). 005–012 compile fine but indicate code
//     that cannot mean what it says: division by a constant zero,
//     conjunctions that are always false or conjuncts that are always
//     true (interval analysis over call-free comparisons), and dead
//     definitions, lets, parameters, output columns and constants.
//
//   - SGL1xx — performance. These mirror the real executor's classifiers
//     (internal/exec.Analyzer, internal/algebra's pipeline report): a
//     definition whose pipeline is residual class, an output falling
//     back to a per-probe scan, a guard that cannot be pushed below the
//     index probe. Lint calls the exact classifier the engine runs with,
//     so lint and executor can never disagree.
//
// The paper framing: which query classes admit efficient (incremental,
// indexed) evaluation is decidable from the query text alone — so decide
// it at compile time and tell the user, instead of silently falling back
// at runtime.
package lint

import (
	"fmt"
	"sort"

	"github.com/epicscale/sgl/internal/sgl/token"
	"github.com/epicscale/sgl/internal/table"
)

// Severity of a diagnostic: "error" means the script does not compile;
// "warn" means it compiles but something is wrong or slow.
type Severity string

// Severities.
const (
	SevError Severity = "error"
	SevWarn  Severity = "warn"
)

// Diagnostic is one lint finding.
type Diagnostic struct {
	Code     string    `json:"code"`
	Severity Severity  `json:"severity"`
	Pos      token.Pos `json:"-"`
	Line     int       `json:"line"`
	Col      int       `json:"col"`
	Msg      string    `json:"msg"`
}

// String renders the diagnostic in the conventional line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s %s: %s", d.Line, d.Col, d.Code, d.Severity, d.Msg)
}

// Mode selects which compile pipeline the source is checked against.
type Mode int

// Modes.
const (
	// ModeScript is a behavior script: sem.Check, entry point main.
	ModeScript Mode = iota
	// ModeQuery is a read-only observation query: sem.CheckQuery, the
	// last aggregate is the entry point.
	ModeQuery
)

// Options configure a lint run. Schema is required; the rest default to
// empty.
type Options struct {
	Mode   Mode
	Schema *table.Schema
	Consts map[string]float64
	// Categoricals are the partitioning attributes the engine will run
	// with — they decide index usability, so lint must be given the same
	// list the engine is (the server and battlesim use game.Categoricals).
	Categoricals []string
}

// Diagnostic codes. The full table with examples lives in LANGUAGE.md.
// SGL102 is retired: it flagged a query whose maintained answer
// rederived instead of patching, and no answer is maintained any more.
// Never reuse it.
const (
	CodeCompile      = "SGL001" // parse or semantic error
	CodeDupDecl      = "SGL002" // duplicate declaration
	CodeDupParam     = "SGL003" // duplicate parameter
	CodeShadow       = "SGL004" // let shadows an existing binding
	CodeDivZero      = "SGL005" // division/modulus by constant zero
	CodeAlwaysFalse  = "SGL006" // condition can never hold
	CodeAlwaysTrue   = "SGL007" // conjunct always holds (foldable)
	CodeDeadDef      = "SGL008" // definition never used
	CodeDeadLet      = "SGL009" // let binding never read
	CodeDeadParam    = "SGL010" // parameter never read
	CodeDeadOutput   = "SGL011" // aggregate output column never read
	CodeDeadConst    = "SGL012" // game constant never referenced
	CodeResidual     = "SGL101" // definition not index-usable
	CodeGuardBlocked = "SGL103" // guard not pushable below the index probe
	CodeScanOutput   = "SGL104" // output falls back to scan despite indexable def
)

func severityOf(code string) Severity {
	switch code {
	case CodeCompile, CodeDupDecl, CodeDupParam, CodeShadow:
		return SevError
	default:
		return SevWarn
	}
}

// linter accumulates diagnostics for one run.
type linter struct {
	opts  Options
	diags []Diagnostic
}

func (l *linter) report(code string, pos token.Pos, format string, args ...any) {
	l.diags = append(l.diags, Diagnostic{
		Code:     code,
		Severity: severityOf(code),
		Pos:      pos,
		Line:     pos.Line,
		Col:      pos.Col,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Lint runs every rule against src and returns the findings sorted by
// position, then code. It never panics on any input the lexer accepts:
// a source that fails to parse or check yields a single SGL001.
func Lint(src string, opts Options) []Diagnostic {
	l := &linter{opts: opts}
	l.run(src)
	sort.SliceStable(l.diags, func(i, j int) bool {
		a, b := l.diags[i], l.diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return l.diags
}
