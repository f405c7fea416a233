// HTTP/JSON surface of the multi-session daemon. Routes (all JSON unless
// noted):
//
//	POST   /v1/sessions                     create a world (from script or checkpoint)
//	GET    /v1/sessions                     list worlds
//	GET    /v1/sessions/{name}              one world's status
//	DELETE /v1/sessions/{name}              stop clock, remove world
//	POST   /v1/sessions/{name}/step         advance N ticks synchronously
//	POST   /v1/sessions/{name}/run          start the clock at a tick rate
//	POST   /v1/sessions/{name}/stop         stop the clock
//	POST   /v1/sessions/{name}/query        evaluate an observation query
//	GET    /v1/sessions/{name}/subscribe    push changed answers (SSE)
//	POST   /v1/sessions/{name}/commands     inject commands (spawn/despawn/set/tune)
//	GET    /v1/sessions/{name}/journal      download the input journal (?since=N for the entries stamped after N, &wait=D to long-poll)
//	POST   /v1/sessions/{name}/compact      fold the applied journal into the base
//	POST   /v1/sessions/{name}/checkpoint   write a checkpoint into the data dir
//	GET    /v1/sessions/{name}/checkpoint   stream a checkpoint (binary)
//	PUT    /v1/sessions/{name}/checkpoint   create a world from a pushed checkpoint stream (binary body)
//	GET    /metrics                         Prometheus text exposition
//	GET    /healthz                         liveness probe
//	GET    /readyz                          readiness + per-world lag report (cluster signals)
//
// Error responses are {"error": "..."} with a 4xx/5xx status. The
// checkpoint data directory is the daemon's only filesystem surface;
// file names are validated to be flat path components, so clients cannot
// escape it. Checkpoints are self-contained (the format embeds the
// script), so a checkpoint file is one atomic rename — no sidecar, no
// pairing discipline.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/sgl/lint"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

// Server glues the registry to an http.Handler.
type Server struct {
	reg *Registry
	// dataDir is where POST …/checkpoint writes and restore-by-file
	// reads. Empty disables file-based checkpoints (streaming still
	// works).
	dataDir string
	mux     *http.ServeMux
}

// New builds a server around reg. dataDir may be empty to disable
// file-based checkpoint/restore.
func New(reg *Registry, dataDir string) *Server {
	s := &Server{reg: reg, dataDir: dataDir, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{name}/step", s.handleStep)
	s.mux.HandleFunc("POST /v1/sessions/{name}/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sessions/{name}/stop", s.handleStop)
	s.mux.HandleFunc("POST /v1/sessions/{name}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/sessions/{name}/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("POST /v1/sessions/{name}/commands", s.handleCommands)
	s.mux.HandleFunc("GET /v1/sessions/{name}/journal", s.handleJournal)
	s.mux.HandleFunc("POST /v1/sessions/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/sessions/{name}/checkpoint", s.handleCheckpointFile)
	s.mux.HandleFunc("GET /v1/sessions/{name}/checkpoint", s.handleCheckpointStream)
	s.mux.HandleFunc("PUT /v1/sessions/{name}/checkpoint", s.handleCheckpointPut)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// ServeHTTP implements http.Handler. A handler that panics fails the
// world its path names (see World.fail) and answers 503; other worlds
// keep serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		if wd, ok := s.reg.Get(r.PathValue("name")); ok {
			writeErr(w, http.StatusServiceUnavailable, "%v", wd.fail(v))
			return
		}
		writeErr(w, http.StatusInternalServerError, "server: panic: %v", v)
	}()
	s.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// Wire types

// CreateRequest creates a world. Exactly one of the two creation paths is
// used: Restore names a checkpoint file in the data dir (live-migration
// arrival); otherwise the world is generated from Script + army spec.
type CreateRequest struct {
	Name string `json:"name"`

	// Fresh-world path.
	Script    string  `json:"script,omitempty"`  // SGL source; empty = built-in battle script
	Units     int     `json:"units,omitempty"`   // default 1000
	Density   float64 `json:"density,omitempty"` // default 0.01
	Seed      uint64  `json:"seed,omitempty"`
	Formation string  `json:"formation,omitempty"` // "lines" (default) or "scattered"
	Mode      string  `json:"mode,omitempty"`      // "indexed" (default) or "naive"

	// Restore path: checkpoint file name in the data dir. Checkpoints
	// are self-contained (the script travels inside the stream), so every
	// fresh-world field above must be empty.
	Restore string `json:"restore,omitempty"`

	// Per-session determinism-neutral tuning. Compact folds the applied
	// journal prefix into the checkpoint base at the end of every tick,
	// keeping checkpoint size flat under sustained command traffic at
	// the cost of genesis replay (GET …/journal reports the base).
	Workers int `json:"workers,omitempty"`
	// Incremental is accepted and ignored.
	//
	// Deprecated: index maintenance has no switch (engine.Options.Incremental).
	Incremental bool `json:"incremental,omitempty"`
	Compact     bool `json:"compact,omitempty"`

	// TickRate, when nonzero, starts the clock immediately (ticks/second;
	// negative = uncapped).
	TickRate float64 `json:"tickrate,omitempty"`
}

// StepRequest advances a world synchronously.
type StepRequest struct {
	Ticks int `json:"ticks"`
}

// RunRequest starts a world's clock.
type RunRequest struct {
	// TickRate is the target ticks per second; <= 0 runs uncapped.
	TickRate float64 `json:"tickrate"`
}

// QueryRequest evaluates a compiled-once observation query on the last
// committed tick's read view. X/Y/Unit name its probe: none → engine.World,
// X+Y → engine.At, Unit → engine.Unit. Scan selects the naive-scan
// evaluator (ReadView.QueryScan, the differential oracle; mostly for tests
// and measurement).
type QueryRequest struct {
	Src  string    `json:"src"`
	Args []float64 `json:"args,omitempty"`
	X    *float64  `json:"x,omitempty"`
	Y    *float64  `json:"y,omitempty"`
	Unit *int64    `json:"unit,omitempty"`
	Scan bool      `json:"scan,omitempty"`
}

// QueryResponse carries one evaluation's outputs. Tick is the last tick
// the world had committed when the query arrived — the state Values was
// computed on; while a later tick is still computing, responses keep
// answering for (and naming) this one. Warnings holds the
// query's lint findings (computed once per cached source, all
// warn-severity since the query compiled) so clients see the SGL1xx
// performance classification of what they just ran.
type QueryResponse struct {
	Name     string            `json:"name"`
	Tick     int64             `json:"tick"`
	Outputs  []string          `json:"outputs"`
	Values   []float64         `json:"values"`
	Warnings []lint.Diagnostic `json:"warnings,omitempty"`
}

// CreateResponse is the body of a successful create/restore: the
// world's status plus the script's lint findings. Warnings is always an
// array (possibly empty), never null — the script compiled, so every
// finding is warn-severity.
type CreateResponse struct {
	Status
	Warnings []lint.Diagnostic `json:"warnings"`
}

// CommandsRequest injects a batch of typed commands into a world's
// input buffer; they apply at the next tick's commit — the one under
// way, if a tick is running — in the canonical (tick, origin, sequence)
// order. The batch is all-or-nothing: if any
// command fails validation, none is enqueued.
type CommandsRequest struct {
	// Origin identifies the submitter; commands from one origin apply in
	// submission order relative to each other.
	Origin string `json:"origin,omitempty"`
	// Commands is the batch, bounded by MaxCommandsPerRequest.
	Commands []WireCommand `json:"commands"`
}

// WireCommand is the JSON shape of one injected command. Op selects the
// mutation and which other fields matter:
//
//	spawn:   key, player, unittype, x, y   (a new battle unit)
//	despawn: key
//	set:     key, col, val
//	tune:    name, val                     (a game constant)
type WireCommand struct {
	Op       string  `json:"op"`
	Key      int64   `json:"key,omitempty"`
	Player   int     `json:"player,omitempty"`
	UnitType int     `json:"unittype,omitempty"`
	X        float64 `json:"x,omitempty"`
	Y        float64 `json:"y,omitempty"`
	Col      string  `json:"col,omitempty"`
	Name     string  `json:"name,omitempty"`
	Val      float64 `json:"val,omitempty"`
}

// CommandsResponse acknowledges an accepted batch.
type CommandsResponse struct {
	// Accepted is the number of commands enqueued (the whole batch).
	Accepted int `json:"accepted"`
	// Tick is the tick of the world's read view at admission. The
	// commands are stamped Tick+1 or later (Tick+1 unless a tick commits
	// between admission and the drain that stamps them), and the view
	// labelled with their stamp is the first to show them.
	Tick int64 `json:"tick"`
}

// JournalResponse carries a world's input journal.
type JournalResponse struct {
	Name string `json:"name"`
	// Tick is the world's tick count when the journal was read.
	Tick int64 `json:"tick"`
	// Base is the journal's compaction base: entries stamped at or before
	// this tick have been folded into the checkpoint state and are no
	// longer retrievable. 0 means the journal reaches back to genesis.
	Base int64 `json:"base"`
	// Entries is every retained accepted command with its (tick, origin,
	// seq) stamp, in acceptance order: those stamped after Base (or,
	// with ?since=N, those stamped after N — what a world at tick N has
	// yet to apply).
	Entries []engine.StampedCommand `json:"entries"`
}

// CheckpointRequest writes a checkpoint file into the data dir.
type CheckpointRequest struct {
	// File is the checkpoint file name; empty derives "<session>.ckpt".
	File string `json:"file,omitempty"`
}

// CheckpointResponse reports where a checkpoint landed.
type CheckpointResponse struct {
	File string `json:"file"`
	Tick int64  `json:"tick"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Helpers

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON decodes a request body strictly (unknown fields are errors,
// catching misspelled tuning knobs instead of silently ignoring them).
// Bodies over maxRequestBytes are rejected with 413 — distinguishable
// from malformed JSON, and MaxBytesReader gets the ResponseWriter so the
// oversized connection is closed instead of draining the rest.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if dec.More() {
		return errors.New("unexpected data after JSON body")
	}
	return nil
}

// writeBodyErr maps a decodeJSON failure to its status: 413 for an
// oversized body, 400 for everything else.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
}

// maxRequestBytes bounds request bodies; scripts are small.
const maxRequestBytes = 1 << 20

// dataPath resolves a client-supplied checkpoint file name inside the
// data dir. The name must already satisfy ValidFileName (a flat path
// component, no "..", no separators); this re-checks the joined result
// as defense in depth, so no future relaxation of the name rules can
// silently open directory escape.
func (s *Server) dataPath(file string) (string, error) {
	path := filepath.Join(s.dataDir, file)
	if filepath.Dir(path) != filepath.Clean(s.dataDir) || filepath.Base(path) != file {
		return "", fmt.Errorf("checkpoint file name %q escapes the data directory", file)
	}
	return path, nil
}

// maxStepTicks bounds one synchronous step request. Session.Step has no
// cancellation — neither client disconnect nor DELETE interrupts it —
// so the bound is what keeps a single request from pinning a world (and
// a core) for hours. Long runs either loop step requests or use the
// clock (/run), which is stoppable.
const maxStepTicks = 10_000

// maxJournalWait caps one journal long-poll (GET …/journal?wait=): a
// paused world must not pin request handlers forever; clients re-poll.
const maxJournalWait = 30 * time.Second

// maxCheckpointBytes bounds a pushed checkpoint stream (PUT
// …/checkpoint). Far above any real world (a 1M-unit army checkpoints in
// the tens of MB), far below an allocation that endangers the daemon.
const maxCheckpointBytes = 1 << 30

// world resolves the {name} path segment, writing a 404 on miss and a
// 503 naming the failure for a failed world.
func (s *Server) world(w http.ResponseWriter, r *http.Request) (*World, bool) {
	name := r.PathValue("name")
	wd, ok := s.reg.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", name)
		return nil, false
	}
	if err := wd.failed(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil, false
	}
	return wd, true
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	if !ValidName(req.Name) {
		writeErr(w, http.StatusBadRequest, "invalid session name %q", req.Name)
		return
	}
	tune := engine.Options{Workers: req.Workers, CompactJournal: req.Compact}

	var world *World
	var err error
	if req.Restore != "" {
		// The fresh-world spec, script included, lives in the checkpoint;
		// accepting (and silently dropping) it here would let a client
		// believe it restored a resized, reseeded or reprogrammed world.
		if req.Script != "" || req.Units != 0 || req.Density != 0 || req.Seed != 0 || req.Formation != "" || req.Mode != "" {
			writeErr(w, http.StatusBadRequest,
				"restore and fresh-world fields (script/units/density/seed/formation/mode) are mutually exclusive: the checkpoint carries the world spec")
			return
		}
		world, err = s.restoreFromFile(req, tune)
	} else {
		spec := WorldSpec{
			Script:   req.Script,
			Units:    req.Units,
			Density:  req.Density,
			Seed:     req.Seed,
			Tune:     tune,
			TickRate: req.TickRate,
		}
		switch req.Formation {
		case "", "lines":
			spec.Formation = workload.BattleLines
		case "scattered":
			spec.Formation = workload.Scattered
		default:
			writeErr(w, http.StatusBadRequest, "formation must be \"lines\" or \"scattered\", got %q", req.Formation)
			return
		}
		switch req.Mode {
		case "", "indexed":
			spec.Mode = engine.Indexed
		case "naive":
			spec.Mode = engine.Naive
		default:
			writeErr(w, http.StatusBadRequest, "mode must be \"naive\" or \"indexed\", got %q", req.Mode)
			return
		}
		world, err = s.reg.Create(req.Name, spec)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{Status: world.Status(), Warnings: world.Warnings()})
}

// restoreFromFile is the arrival half of live migration: open the named
// checkpoint in the data dir and register the restored session under
// restore-time tuning. The checkpoint is self-contained — the script it
// ran travels inside the stream — so one file read is the whole
// operation.
func (s *Server) restoreFromFile(req CreateRequest, tune engine.Options) (*World, error) {
	if s.dataDir == "" {
		return nil, errors.New("server: no data directory configured; file restore disabled")
	}
	if !ValidFileName(req.Restore) {
		return nil, fmt.Errorf("server: invalid checkpoint file name %q", req.Restore)
	}
	path, err := s.dataPath(req.Restore)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: open checkpoint: %w", err)
	}
	defer f.Close()
	return s.reg.Restore(req.Name, f, tune, req.TickRate)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if wd, ok := s.world(w, r); ok {
		writeJSON(w, http.StatusOK, wd.Status())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Delete(name) {
		writeErr(w, http.StatusNotFound, "unknown session %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	var req StepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	if req.Ticks <= 0 {
		writeErr(w, http.StatusBadRequest, "ticks must be positive, got %d", req.Ticks)
		return
	}
	if req.Ticks > maxStepTicks {
		writeErr(w, http.StatusBadRequest,
			"ticks %d exceeds the per-request limit %d; issue multiple requests (a synchronous step cannot be cancelled, so one request must not monopolize the world indefinitely)",
			req.Ticks, maxStepTicks)
		return
	}
	if err := wd.Step(req.Ticks); err != nil {
		if errors.Is(err, ErrClockRunning) || errors.Is(err, ErrReplica) {
			writeErr(w, http.StatusConflict, "%v", err)
		} else {
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, wd.Status())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	var req RunRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	rate := req.TickRate
	if rate < 0 {
		rate = 0
	}
	if err := wd.StartClock(rate); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wd.Status())
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	wd.StopClock()
	writeJSON(w, http.StatusOK, wd.Status())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	var req QueryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	if req.Src == "" {
		writeErr(w, http.StatusBadRequest, "query src is required")
		return
	}
	start := time.Now()
	resp, err := s.evalQuery(wd, req)
	if err != nil {
		// Failed queries count only as errors: charging their time to
		// sgld_query_seconds_total while not counting them in
		// sgld_queries_total would skew the standard seconds/queries
		// latency ratio.
		wd.queryErrs.Inc()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	wd.querySecs.Add(time.Since(start).Seconds())
	wd.queriesTotal.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// evalQuery compiles (once) and evaluates one query through the probe
// the request names.
func (s *Server) evalQuery(wd *World, req QueryRequest) (*QueryResponse, error) {
	q, warns, err := wd.CompiledQuery(req.Src)
	if err != nil {
		return nil, err
	}
	p, err := req.probe()
	if err != nil {
		return nil, err
	}
	// Values and tick label come from one read view: the response's tick
	// is exactly the committed tick the values were computed at, however
	// many ticks the clock commits while the query runs. No session lock
	// is taken, so the request never waits for the tick in flight.
	v := wd.Session().ReadView()
	eval := v.Query
	if req.Scan {
		eval = v.QueryScan
	}
	vals, err := eval(q, p, req.Args...)
	if err != nil {
		return nil, err
	}
	return &QueryResponse{
		Name: q.Name(), Tick: v.Tick(),
		Outputs: q.Outputs(), Values: vals,
		Warnings: warns,
	}, nil
}

// probe builds the probe a query or subscribe request names: X and Y
// together, Unit alone, or neither — the world. Both endpoints take their
// probe from here.
func (req *QueryRequest) probe() (engine.Probe, error) {
	switch {
	case (req.X == nil) != (req.Y == nil):
		return engine.Probe{}, errors.New("a positional probe needs both x and y")
	case req.Unit != nil && req.X != nil:
		return engine.Probe{}, errors.New("unit and x/y probes are mutually exclusive")
	case req.Unit != nil:
		return engine.Unit(*req.Unit), nil
	case req.X != nil:
		return engine.At(*req.X, *req.Y), nil
	}
	return engine.World(), nil
}

// MaxCommandsPerRequest bounds one command batch; the engine's own
// input-buffer limit (engine.MaxPendingCommands) still applies across
// batches.
const MaxCommandsPerRequest = 256

func (s *Server) handleCommands(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	var req CommandsRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	if len(req.Commands) == 0 {
		writeErr(w, http.StatusBadRequest, "commands must not be empty")
		return
	}
	if len(req.Commands) > MaxCommandsPerRequest {
		writeErr(w, http.StatusBadRequest, "%d commands exceeds the per-request limit %d", len(req.Commands), MaxCommandsPerRequest)
		return
	}
	cmds := make([]engine.Command, len(req.Commands))
	for i, wc := range req.Commands {
		c, err := wc.toCommand(wd)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "command %d: %v", i, err)
			return
		}
		cmds[i] = c
	}
	start := time.Now()
	tick, err := wd.SubmitCommands(req.Origin, cmds)
	if err != nil {
		if errors.Is(err, ErrReplica) {
			writeErr(w, http.StatusConflict, "%v", err)
		} else {
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	wd.commandSecs.Add(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, CommandsResponse{Accepted: len(cmds), Tick: tick})
}

// toCommand maps the JSON wire shape to the engine's typed command. The
// spawn path builds a full battle-schema row via game.NewUnit, so the
// roster indexes must be validated here (NewUnit indexes by unit type).
func (wc WireCommand) toCommand(wd *World) (engine.Command, error) {
	switch wc.Op {
	case "spawn":
		if wc.Player != 0 && wc.Player != 1 {
			return engine.Command{}, fmt.Errorf("spawn player must be 0 or 1, got %d", wc.Player)
		}
		if wc.UnitType < game.Knight || wc.UnitType > game.Healer {
			return engine.Command{}, fmt.Errorf("spawn unittype must be 0 (knight), 1 (archer) or 2 (healer), got %d", wc.UnitType)
		}
		if wc.Key < 0 || wc.Key > 1<<53 { // a float64 row key beyond 2^53 would round onto another unit
			return engine.Command{}, fmt.Errorf("spawn key must be a non-negative integer of at most 2^53, got %d", wc.Key)
		}
		row := game.NewUnit(wc.Key, wc.Player, wc.UnitType, geom.Point{X: wc.X, Y: wc.Y})
		return engine.Command{Op: engine.OpSpawn, Row: row}, nil
	case "despawn":
		return engine.Command{Op: engine.OpDespawn, Key: wc.Key}, nil
	case "set":
		return engine.Command{Op: engine.OpSet, Key: wc.Key, Col: wc.Col, Val: wc.Val}, nil
	case "tune":
		return engine.Command{Op: engine.OpTune, Col: wc.Name, Val: wc.Val}, nil
	default:
		return engine.Command{}, fmt.Errorf("op must be spawn, despawn, set or tune, got %q", wc.Op)
	}
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	var since int64 = -1 // no ?since= → everything retained, from the base on
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "since must be a non-negative tick, got %q", raw)
			return
		}
		since = v
	}
	// ?wait=D long-polls: block until the world's tick exceeds ?since (so
	// the suffix is non-trivially answerable) or D elapses, whichever is
	// first. This is the replication transport — a follower parks one
	// request here per writer tick instead of polling between ticks. Only
	// meaningful with ?since: an unanchored wait has nothing to wait past.
	if raw := r.URL.Query().Get("wait"); raw != "" {
		if since < 0 {
			writeErr(w, http.StatusBadRequest, "wait requires since (the tick to wait past)")
			return
		}
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "wait must be a non-negative duration, got %q", raw)
			return
		}
		if d > maxJournalWait {
			d = maxJournalWait
		}
		// A timeout (or world deletion) is not an error: the client gets
		// the current — possibly empty — suffix and re-polls.
		wd.WaitTick(since, d)
	}
	// Journal, base and tick in one View, so the response's tick is
	// exactly the tick the journal snapshot was taken at.
	resp := JournalResponse{Name: wd.Name}
	var sinceErr error
	wd.Session().View(func(e *engine.Engine) {
		resp.Tick = e.TickCount()
		resp.Base = e.JournalBase()
		if since < 0 {
			resp.Entries = e.Journal()
		} else {
			resp.Entries, sinceErr = e.JournalSince(since)
		}
	})
	var ce *engine.CompactedError
	if errors.As(sinceErr, &ce) {
		// The requested prefix has been folded away: 410 Gone, with the
		// base tick a client can re-request from.
		writeErr(w, http.StatusGone, "journal before tick %d compacted away; re-request with ?since=%d", ce.BaseTick, ce.BaseTick)
		return
	}
	if sinceErr != nil {
		writeErr(w, http.StatusInternalServerError, "%v", sinceErr)
		return
	}
	if resp.Entries == nil {
		resp.Entries = []engine.StampedCommand{} // render [], not null
	}
	writeJSON(w, http.StatusOK, resp)
}

// CompactResponse reports a manual compaction's new journal base.
type CompactResponse struct {
	Name string `json:"name"`
	Tick int64  `json:"tick"`
	// Base is the new compaction base: the journal now starts here.
	Base int64 `json:"base"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	if wd.Replica() {
		// A replica's journal base must track the writer's: compacting it
		// independently would make its ?since= answers diverge.
		writeErr(w, http.StatusConflict, "server: world %s: %v; its journal base is the writer's", wd.Name, ErrReplica)
		return
	}
	sess := wd.Session()
	base := sess.Compact()
	writeJSON(w, http.StatusOK, CompactResponse{Name: wd.Name, Tick: sess.Tick(), Base: base})
}

func (s *Server) handleCheckpointFile(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	if s.dataDir == "" {
		writeErr(w, http.StatusBadRequest, "no data directory configured; use GET …/checkpoint to stream")
		return
	}
	var req CheckpointRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	// The derived default is safe by construction (validated session name
	// plus a fixed suffix — no separators), and must not be re-validated:
	// a maximum-length session name would push the derived name past
	// ValidName's cap and make the session impossible to checkpoint.
	file := req.File
	if file == "" {
		file = wd.Name + ".ckpt"
	} else if !ValidFileName(file) {
		writeErr(w, http.StatusBadRequest, "invalid checkpoint file name %q", file)
		return
	}
	path, err := s.dataPath(file)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	tick, err := s.writeCheckpointFile(wd, path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wd.checkpoints.Inc()
	writeJSON(w, http.StatusOK, CheckpointResponse{File: file, Tick: tick})
}

// writeCheckpointFile persists a self-contained checkpoint with the
// crash discipline battlesim uses — temp file, fsync, rename into place.
// The script rides inside the stream (format v2), so the write is ONE
// atomic rename: the crash window the old checkpoint+sidecar pair could
// not close from either rename order no longer exists. Temp names are
// per-call (os.CreateTemp), so concurrent checkpoints of the same file
// each write whole files and the last rename wins whole. Returns the
// tick the checkpoint captured.
func (s *Server) writeCheckpointFile(wd *World, path string) (tick int64, err error) {
	err = table.WriteFileAtomic(path, func(f *os.File) error {
		// Tick capture and serialization in one View: read separately,
		// a running clock could advance between them and the response
		// would mislabel the snapshot.
		var cerr error
		wd.Session().View(func(e *engine.Engine) {
			tick = e.TickCount()
			cerr = e.Checkpoint(f)
		})
		return cerr
	})
	if err != nil {
		return 0, err
	}
	return tick, nil
}

func (s *Server) handleCheckpointStream(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	// Serialize under the session lock into memory, then stream lock-free:
	// writing straight to the client would hold the reader lock for as
	// long as the slowest client takes to drain the response, parking the
	// clock (and, through the pending writer, every other spectator).
	var buf bytes.Buffer
	if err := wd.Checkpoint(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-SGL-Checkpoint-Version", fmt.Sprint(engine.CheckpointVersion))
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	_, _ = w.Write(buf.Bytes())
	wd.checkpoints.Inc()
}

// handleCheckpointPut is the push half of live migration: the gateway
// (or an operator) streams a self-contained checkpoint as the request
// body and the world comes up here under restore-time tuning — no shared
// data directory required. Tuning rides in query parameters because the
// body is the raw binary stream: ?workers, ?compact, ?tickrate
// (?incremental, from before maintenance lost its switch, is accepted
// and ignored). The stream carries its script, so ?script is a 400.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !ValidName(name) {
		writeErr(w, http.StatusBadRequest, "invalid session name %q", name)
		return
	}
	q := r.URL.Query()
	if q.Has("script") {
		writeErr(w, http.StatusBadRequest, "script is not a restore parameter: the checkpoint carries its script")
		return
	}
	var tune engine.Options
	var tickRate float64
	var err error
	if raw := q.Get("workers"); raw != "" {
		if tune.Workers, err = strconv.Atoi(raw); err != nil {
			writeErr(w, http.StatusBadRequest, "workers must be an integer, got %q", raw)
			return
		}
	}
	if raw := q.Get("compact"); raw != "" {
		if tune.CompactJournal, err = strconv.ParseBool(raw); err != nil {
			writeErr(w, http.StatusBadRequest, "compact must be a boolean, got %q", raw)
			return
		}
	}
	if raw := q.Get("tickrate"); raw != "" {
		if tickRate, err = strconv.ParseFloat(raw, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "tickrate must be a number, got %q", raw)
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, maxCheckpointBytes)
	world, err := s.reg.Restore(name, body, tune, tickRate)
	switch {
	case err == nil:
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	default:
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "checkpoint stream exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{Status: world.Status(), Warnings: world.Warnings()})
}

// ReadySession is one world's row in the readiness report: enough for a
// gateway to weigh load (world count) and a replica supervisor to judge
// freshness (per-world lag).
type ReadySession struct {
	Name     string `json:"name"`
	Tick     int64  `json:"tick"`
	Replica  bool   `json:"replica,omitempty"`
	LagTicks int64  `json:"lag_ticks,omitempty"`
}

// ReadyResponse is GET /readyz's body. The status is always 200 once the
// daemon serves HTTP — readiness here means "accepting placements", and
// the interesting signal is the load/lag content, which the gateway's
// health prober consumes for least-loaded placement.
type ReadyResponse struct {
	Worlds      int            `json:"worlds"`
	Replicas    int            `json:"replicas"`
	MaxLagTicks int64          `json:"max_lag_ticks"`
	Sessions    []ReadySession `json:"sessions"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	statuses := s.reg.List()
	resp := ReadyResponse{Sessions: make([]ReadySession, 0, len(statuses))}
	for _, st := range statuses {
		resp.Worlds++
		if st.Replica {
			resp.Replicas++
			if st.LagTicks > resp.MaxLagTicks {
				resp.MaxLagTicks = st.LagTicks
			}
		}
		resp.Sessions = append(resp.Sessions, ReadySession{
			Name: st.Name, Tick: st.Tick, Replica: st.Replica, LagTicks: st.LagTicks,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}
