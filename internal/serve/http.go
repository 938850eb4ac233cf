package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Server exposes one or more Engines over HTTP/JSON:
//
//	GET  /healthz                     liveness + served model names
//	GET  /stats                       per-model Stats snapshots
//	GET  /v1/models                   model list with I/O signatures
//	GET  /v1/models/<name>            one model's signature
//	POST /v1/models/<name>:infer      single-example inference
//
// An inference request body is {"inputs": {<name>: {"shape": [...],
// "data": [...]}}} with each tensor in the input's example shape; the
// response mirrors it under "outputs". Two optional fields select the
// admission lane and deadline budget: "priority" ("interactive", the
// default, or "batch") and "deadline_ms" (a per-request deadline
// overriding the engine's DefaultDeadline when earlier). Register
// every engine before calling Handler — the map is read-only while
// serving.
//
// # Error contract
//
// Every error response is a JSON object {"error": <message>, "code":
// <machine-readable code>}. The codes and their statuses:
//
//	invalid_input       400  malformed body, bad tensor shape, unknown
//	                         input or priority
//	not_found           404  unknown model
//	method_not_allowed  405  :infer with a method other than POST
//	request_too_large   413  body exceeded the per-example budget
//	overloaded          503  admission queue full or deadline budget
//	                         below the estimated queue+execution time;
//	                         carries a Retry-After header (seconds)
//	closed              503  engine shut down
//	deadline_exceeded   504  the deadline passed before execution
//	internal            500  execution fault
type Server struct {
	engines map[string]*Engine

	// Telemetry, all optional (see EnableTelemetry / EnablePprof):
	// reg backs GET /metrics, trace backs GET /debug/trace and the
	// per-request sampling at handleInfer admission, and pprofOn
	// mounts net/http/pprof under /debug/pprof/.
	reg     *telemetry.Registry
	trace   *telemetry.TraceCollector
	pprofOn bool
}

// Error codes of the JSON error contract above.
const (
	CodeInvalidInput     = "invalid_input"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTooLarge         = "request_too_large"
	CodeOverloaded       = "overloaded"
	CodeClosed           = "closed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeInternal         = "internal"
)

// NewServer returns an empty server.
func NewServer() *Server { return &Server{engines: map[string]*Engine{}} }

// Register adds an engine under its workload name; it panics on a
// duplicate name (a replaced engine's goroutines and sessions would
// leak for the process lifetime), mirroring core.Register.
func (srv *Server) Register(e *Engine) {
	name := e.Model().Name()
	if _, dup := srv.engines[name]; dup {
		panic("serve: duplicate engine for model " + name)
	}
	srv.engines[name] = e
}

// EnableTelemetry wires the server's observability endpoints: reg
// (when non-nil) is exposed at GET /metrics in Prometheus text format,
// with every registered engine's metric families added to it; tc (when
// non-nil) samples requests at handleInfer admission and backs GET
// /debug/trace, which drains the collector's ring as one Chrome-trace
// JSON document (one-shot: a drained trace is gone). Call after
// registering engines and before Handler.
func (srv *Server) EnableTelemetry(reg *telemetry.Registry, tc *telemetry.TraceCollector) {
	srv.reg = reg
	srv.trace = tc
	if reg != nil {
		for _, e := range srv.engines {
			e.RegisterMetrics(reg)
		}
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next
// Handler call — CPU and heap profiles over the same mux, for chasing
// a live engine's overheads without redeploying.
func (srv *Server) EnablePprof() { srv.pprofOn = true }

// Names returns the served workload names, sorted.
func (srv *Server) Names() []string {
	out := make([]string, 0, len(srv.engines))
	for n := range srv.engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// jsonTensor is the wire form of a tensor.
type jsonTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

func toJSONTensor(t *tensor.Tensor) jsonTensor {
	return jsonTensor{Shape: t.Shape(), Data: t.Data()}
}

func fromJSONTensor(jt jsonTensor) (*tensor.Tensor, error) {
	size := 1
	for _, d := range jt.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("bad dimension %d in shape %v", d, jt.Shape)
		}
		// size*d > len(data), asked without forming a product that can
		// wrap: [2^32, 2^32] must not pass as a 0-element tensor.
		if size > len(jt.Data)/d {
			return nil, fmt.Errorf("shape %v wants more than the %d values given", jt.Shape, len(jt.Data))
		}
		size *= d
	}
	if len(jt.Data) != size {
		return nil, fmt.Errorf("shape %v wants %d values, got %d", jt.Shape, size, len(jt.Data))
	}
	return tensor.FromSlice(jt.Data, jt.Shape...), nil
}

type inferRequest struct {
	Inputs map[string]jsonTensor `json:"inputs"`
	// Priority selects the admission lane: "interactive" (default) or
	// "batch" (dispatched after interactive traffic, shed first).
	Priority string `json:"priority,omitempty"`
	// DeadlineMS is this request's deadline budget in milliseconds;
	// the engine uses the earlier of it and its DefaultDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type inferResponse struct {
	Model   string                `json:"model"`
	Outputs map[string]jsonTensor `json:"outputs"`
}

// ioJSON describes one signature entry for discovery endpoints.
// Served is false for whole-batch scalar outputs (losses), which the
// signature declares but :infer responses omit — they have no
// per-example rows to return.
type ioJSON struct {
	Name         string `json:"name"`
	ExampleShape []int  `json:"example_shape"`
	BatchDim     int    `json:"batch_dim"`
	Served       bool   `json:"served"`
}

type modelJSON struct {
	Name     string   `json:"name"`
	MaxBatch int      `json:"max_batch"`
	Inputs   []ioJSON `json:"inputs"`
	Outputs  []ioJSON `json:"outputs"`
}

func (srv *Server) modelJSON(name string) modelJSON {
	e := srv.engines[name]
	mj := modelJSON{Name: name, MaxBatch: e.MaxBatch()}
	sig := e.Signature()
	for _, in := range sig.Inputs {
		mj.Inputs = append(mj.Inputs, ioJSON{Name: in.Name, ExampleShape: in.ExampleShape(), BatchDim: in.BatchDim, Served: true})
	}
	for _, out := range sig.Outputs {
		mj.Outputs = append(mj.Outputs, ioJSON{
			Name: out.Name, ExampleShape: out.ExampleShape(), BatchDim: out.BatchDim,
			Served: out.BatchDim != core.BatchNone,
		})
	}
	return mj
}

// Handler returns the HTTP mux serving the endpoints above.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": srv.Names()})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string]Stats, len(srv.engines))
		for n, e := range srv.engines {
			out[n] = e.Stats()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		out := make([]modelJSON, 0, len(srv.engines))
		for _, n := range srv.Names() {
			out = append(out, srv.modelJSON(n))
		}
		writeJSON(w, http.StatusOK, map[string]any{"models": out})
	})
	mux.HandleFunc("/v1/models/", srv.handleModel)
	if srv.reg != nil {
		mux.Handle("/metrics", srv.reg)
	}
	if srv.trace != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			traces := srv.trace.Drain()
			w.Header().Set("Content-Type", "application/json")
			_ = telemetry.WriteChromeTraces(w, traces)
		})
	}
	if srv.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (srv *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if name, ok := strings.CutSuffix(rest, ":infer"); ok {
		srv.handleInfer(w, r, name)
		return
	}
	if _, ok := srv.engines[rest]; !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown model %q (have %v)", rest, srv.Names()))
		return
	}
	writeJSON(w, http.StatusOK, srv.modelJSON(rest))
}

func (srv *Server) handleInfer(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("infer requires POST"))
		return
	}
	e, ok := srv.engines[name]
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown model %q (have %v)", name, srv.Names()))
		return
	}
	// Bound the body before decoding: a well-formed request is one
	// example per input, so budget ~32 bytes per JSON float plus slack
	// — an oversized body must not be buffered into memory.
	var elems int64
	for _, in := range e.Signature().Inputs {
		n := int64(1)
		for _, d := range in.ExampleShape() {
			n *= int64(d)
		}
		elems += n
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20+elems*32)
	var req inferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidInput, fmt.Errorf("bad request body: %w", err))
		return
	}
	pri, err := ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidInput, err)
		return
	}
	inputs := make(map[string]*tensor.Tensor, len(req.Inputs))
	for n, jt := range req.Inputs {
		t, err := fromJSONTensor(jt)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidInput, fmt.Errorf("input %q: %w", n, err))
			return
		}
		inputs[n] = t
	}
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	// Trace sampling is decided here, at HTTP admission: the minted
	// trace (or the nil "not sampled" decision) rides the context into
	// the engine, which builds the span tree under it. The engine sees
	// the decision and never re-samples.
	if srv.trace != nil {
		var tr *telemetry.Trace
		if srv.trace.Sample() {
			tr = srv.trace.New(name)
		}
		ctx = telemetry.ContextWithTrace(ctx, tr)
	}
	outs, err := e.InferPriority(ctx, inputs, pri)
	var ie *InputError
	switch {
	case err == nil:
	case errors.As(err, &ie):
		writeError(w, http.StatusBadRequest, CodeInvalidInput, err)
		return
	case errors.Is(err, ErrOverloaded):
		// Hint how long a batch's worth of backlog takes to drain; a
		// client that honors it arrives when the queue has moved.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(e)))
		writeError(w, http.StatusServiceUnavailable, CodeOverloaded, err)
		return
	case errors.Is(err, ErrExpired) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeClosed, err)
		return
	case r.Context().Err() != nil:
		// Client went away; nothing useful to write.
		return
	default:
		// Post-enqueue failures are execution faults, not request
		// mistakes.
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	resp := inferResponse{Model: name, Outputs: make(map[string]jsonTensor, len(outs))}
	for n, t := range outs {
		resp.Outputs[n] = toJSONTensor(t)
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterSeconds turns the engine's queue estimate into a whole-
// second Retry-After hint, at least 1 (the header has second
// granularity and 0 would invite an immediate hammer).
func retryAfterSeconds(e *Engine) int {
	est := e.estimatedWait(PriorityBatch) // full-queue view
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// jsonError is the wire form of every error response; Code is the
// machine-readable half of the contract documented on Server.
type jsonError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, jsonError{Error: err.Error(), Code: code})
}
