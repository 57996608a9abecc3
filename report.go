package repro

// The unified Report: every engine reports the shared outcome (final
// iterate, convergence, counts, error/residual series, macro-iteration
// sequences) in the same shape, so metrics and trace tooling consume any
// engine's run uniformly. Engine-specific detail stays reachable through
// the typed accessors.

import (
	"encoding/json"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// TimedError is a (virtual time, max-norm error) sample of the simulated
// engines' error trajectories.
type TimedError = des.TimedError

// Report is the outcome of one Solve call, uniform across engines. Fields
// an engine does not produce are zero; see the Engine docs in engine.go for
// the per-engine contract.
//
// A Report is JSON-round-trippable: every exported field marshals under a
// stable snake_case key (Elapsed as integer nanoseconds under
// "elapsed_ns"), fields the engine did not produce are omitted, and the
// unexported per-engine detail never leaks — this is the terminal event
// the serving layer (internal/server) streams back verbatim. Non-finite
// floats (the routing workload iterates from +Inf distances, so error
// series legitimately contain them) encode as the strings "Infinity",
// "-Infinity" and "NaN", the protobuf-JSON convention. Unmarshalling
// restores every exported field; the typed detail accessors (ModelDetail,
// DistDetail, ...) of a decoded Report report "not present".
//
// The struct tags below document the wire keys; the authoritative codec is
// reportWire in this file (kept in sync by the golden key test).
type Report struct {
	// Engine is the name of the engine that produced this report.
	Engine string `json:"engine"`
	// X is the final iterate.
	X []float64 `json:"x"`
	// Converged reports whether the tolerance was met.
	Converged bool `json:"converged"`
	// Iterations counts global iterations (model), updating phases (sim),
	// or barrier rounds (simsync); zero on the goroutine engines, whose
	// per-worker counts are in UpdatesPerWorker.
	Iterations int `json:"iterations"`
	// Updates is the total number of component/block relaxations.
	Updates int `json:"updates"`
	// FinalResidual is the fixed-point residual ||F(x) - x||_inf at X.
	FinalResidual float64 `json:"final_residual"`
	// FinalError is ||X - XStar||_inf (when XStar is known).
	FinalError float64 `json:"final_error,omitempty"`
	// Errors[j] is the per-iteration max-norm error series (model engine
	// with XStar).
	Errors []float64 `json:"errors,omitempty"`
	// ErrorTrace samples (virtual time, error) (simulated engines with
	// XStar).
	ErrorTrace []TimedError `json:"error_trace,omitempty"`
	// Boundaries is the Definition 2 macro-iteration sequence.
	Boundaries []int `json:"boundaries,omitempty"`
	// StrictBoundaries is the suffix-guaranteed macro-iteration sequence
	// used for Theorem 1 validation.
	StrictBoundaries []int `json:"strict_boundaries,omitempty"`
	// Epochs is the epoch sequence of Mishchenko et al. [30].
	Epochs []int `json:"epochs,omitempty"`
	// Records is the per-iteration log (S_j, labels, worker) for offline
	// macro-iteration and epoch analysis.
	Records []IterationRecord `json:"records,omitempty"`
	// UpdatesPerWorker counts completed phases per worker (worker-based
	// engines).
	UpdatesPerWorker []int `json:"updates_per_worker,omitempty"`
	// MessagesSent / MessagesDropped / MessagesStale count transport
	// events (simulated, message and dist engines).
	MessagesSent    int64 `json:"messages_sent,omitempty"`
	MessagesDropped int64 `json:"messages_dropped,omitempty"`
	MessagesStale   int64 `json:"messages_stale,omitempty"`
	// MessagesReordered counts frames discarded at a directed link because
	// a later-sequenced frame from the same source had already been
	// delivered there; MessagesDuplicate counts link discards of frames
	// whose sequence number exactly matched the newest delivered (dist
	// engine — disjoint from each other and from MessagesStale/Dropped).
	MessagesReordered int64 `json:"messages_reordered,omitempty"`
	MessagesDuplicate int64 `json:"messages_duplicate,omitempty"`
	// BytesSent / BytesReceived count wire bytes through the coordinator
	// (dist engine).
	BytesSent     int64 `json:"bytes_sent,omitempty"`
	BytesReceived int64 `json:"bytes_received,omitempty"`
	// WorkersLost / WorkersRejoined count worker links declared dead and
	// fresh connections installed into a vacated slot mid-solve;
	// Resharding counts completed re-shard barriers (dist engine under
	// WithElastic — all zero on a churn-free run).
	WorkersLost     int64 `json:"workers_lost,omitempty"`
	WorkersRejoined int64 `json:"workers_rejoined,omitempty"`
	Resharding      int64 `json:"resharding,omitempty"`
	// Time is the virtual clock at stop (simulated engines).
	Time float64 `json:"time,omitempty"`
	// Elapsed is the wall-clock duration (goroutine and dist engines),
	// marshalled as integer nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`

	model      *core.Result
	sim        *des.Result
	simSync    *des.SyncResult
	concurrent *runtime.Result
	dist       *dist.Result
}

// jsonFloat is a float64 whose JSON form survives non-finite values:
// Inf/NaN encode as the strings "Infinity", "-Infinity", "NaN" (bare JSON
// numbers cannot represent them and encoding/json refuses to emit them).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Infinity"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Infinity"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"Infinity"`:
		*f = jsonFloat(math.Inf(1))
		return nil
	case `"-Infinity"`:
		*f = jsonFloat(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

func toJSONFloats(xs []float64) []jsonFloat {
	if xs == nil {
		return nil
	}
	out := make([]jsonFloat, len(xs))
	for i, v := range xs {
		out[i] = jsonFloat(v)
	}
	return out
}

func fromJSONFloats(xs []jsonFloat) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// timedErrorWire mirrors TimedError with non-finite-safe floats.
type timedErrorWire struct {
	Time  jsonFloat `json:"time"`
	Error jsonFloat `json:"error"`
}

// reportWire is Report's wire form: same keys as the struct tags above,
// with every float routed through jsonFloat so non-finite values survive.
type reportWire struct {
	Engine            string            `json:"engine"`
	X                 []jsonFloat       `json:"x"`
	Converged         bool              `json:"converged"`
	Iterations        int               `json:"iterations"`
	Updates           int               `json:"updates"`
	FinalResidual     jsonFloat         `json:"final_residual"`
	FinalError        jsonFloat         `json:"final_error,omitempty"`
	Errors            []jsonFloat       `json:"errors,omitempty"`
	ErrorTrace        []timedErrorWire  `json:"error_trace,omitempty"`
	Boundaries        []int             `json:"boundaries,omitempty"`
	StrictBoundaries  []int             `json:"strict_boundaries,omitempty"`
	Epochs            []int             `json:"epochs,omitempty"`
	Records           []IterationRecord `json:"records,omitempty"`
	UpdatesPerWorker  []int             `json:"updates_per_worker,omitempty"`
	MessagesSent      int64             `json:"messages_sent,omitempty"`
	MessagesDropped   int64             `json:"messages_dropped,omitempty"`
	MessagesStale     int64             `json:"messages_stale,omitempty"`
	MessagesReordered int64             `json:"messages_reordered,omitempty"`
	MessagesDuplicate int64             `json:"messages_duplicate,omitempty"`
	BytesSent         int64             `json:"bytes_sent,omitempty"`
	BytesReceived     int64             `json:"bytes_received,omitempty"`
	WorkersLost       int64             `json:"workers_lost,omitempty"`
	WorkersRejoined   int64             `json:"workers_rejoined,omitempty"`
	Resharding        int64             `json:"resharding,omitempty"`
	Time              jsonFloat         `json:"time,omitempty"`
	Elapsed           time.Duration     `json:"elapsed_ns,omitempty"`
}

// MarshalJSON encodes the report in its stable wire form (see the type
// docs: snake_case keys, non-finite floats as strings, detail omitted).
func (r Report) MarshalJSON() ([]byte, error) {
	w := reportWire{
		Engine:            r.Engine,
		X:                 toJSONFloats(r.X),
		Converged:         r.Converged,
		Iterations:        r.Iterations,
		Updates:           r.Updates,
		FinalResidual:     jsonFloat(r.FinalResidual),
		FinalError:        jsonFloat(r.FinalError),
		Errors:            toJSONFloats(r.Errors),
		Boundaries:        r.Boundaries,
		StrictBoundaries:  r.StrictBoundaries,
		Epochs:            r.Epochs,
		Records:           r.Records,
		UpdatesPerWorker:  r.UpdatesPerWorker,
		MessagesSent:      r.MessagesSent,
		MessagesDropped:   r.MessagesDropped,
		MessagesStale:     r.MessagesStale,
		MessagesReordered: r.MessagesReordered,
		MessagesDuplicate: r.MessagesDuplicate,
		BytesSent:         r.BytesSent,
		BytesReceived:     r.BytesReceived,
		WorkersLost:       r.WorkersLost,
		WorkersRejoined:   r.WorkersRejoined,
		Resharding:        r.Resharding,
		Time:              jsonFloat(r.Time),
		Elapsed:           r.Elapsed,
	}
	if r.ErrorTrace != nil {
		w.ErrorTrace = make([]timedErrorWire, len(r.ErrorTrace))
		for i, te := range r.ErrorTrace {
			w.ErrorTrace[i] = timedErrorWire{Time: jsonFloat(te.Time), Error: jsonFloat(te.Error)}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form back into a Report. The decoded
// report carries no engine detail (the typed accessors report absence).
func (r *Report) UnmarshalJSON(b []byte) error {
	var w reportWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Report{
		Engine:            w.Engine,
		X:                 fromJSONFloats(w.X),
		Converged:         w.Converged,
		Iterations:        w.Iterations,
		Updates:           w.Updates,
		FinalResidual:     float64(w.FinalResidual),
		FinalError:        float64(w.FinalError),
		Errors:            fromJSONFloats(w.Errors),
		Boundaries:        w.Boundaries,
		StrictBoundaries:  w.StrictBoundaries,
		Epochs:            w.Epochs,
		Records:           w.Records,
		UpdatesPerWorker:  w.UpdatesPerWorker,
		MessagesSent:      w.MessagesSent,
		MessagesDropped:   w.MessagesDropped,
		MessagesStale:     w.MessagesStale,
		MessagesReordered: w.MessagesReordered,
		MessagesDuplicate: w.MessagesDuplicate,
		BytesSent:         w.BytesSent,
		BytesReceived:     w.BytesReceived,
		WorkersLost:       w.WorkersLost,
		WorkersRejoined:   w.WorkersRejoined,
		Resharding:        w.Resharding,
		Time:              float64(w.Time),
		Elapsed:           w.Elapsed,
	}
	if w.ErrorTrace != nil {
		r.ErrorTrace = make([]TimedError, len(w.ErrorTrace))
		for i, te := range w.ErrorTrace {
			r.ErrorTrace[i] = TimedError{Time: float64(te.Time), Error: float64(te.Error)}
		}
	}
	return nil
}

// finish fills in the outcome fields every engine can provide uniformly:
// the fixed-point residual at X and, when XStar is known, the exact error.
func (r *Report) finish(spec Spec) {
	if r.FinalResidual == 0 && r.X != nil {
		r.FinalResidual = operators.Residual(spec.Op, r.X)
	}
	if spec.XStar != nil && r.X != nil {
		r.FinalError = vec.DistInf(r.X, spec.XStar)
	}
}

// ModelDetail returns the mathematical-model engine's full result (for
// Theorem 1 checking and constraint (3) accounting) when this report came
// from EngineModel.
func (r *Report) ModelDetail() (*ModelResult, bool) { return r.model, r.model != nil }

// SimDetail returns the asynchronous simulator's full result when this
// report came from EngineSim.
func (r *Report) SimDetail() (*SimResult, bool) { return r.sim, r.sim != nil }

// SimSyncDetail returns the barrier-synchronous simulator's full result
// (idle and compute time per worker) when this report came from
// EngineSimSync.
func (r *Report) SimSyncDetail() (*SimSyncResult, bool) { return r.simSync, r.simSync != nil }

// ConcurrentDetail returns the worker-loop result every concurrent engine
// reports, when this report came from EngineShared, EngineMessage or
// EngineDist (whose DistDetail embeds it).
func (r *Report) ConcurrentDetail() (*ConcurrentResult, bool) {
	return r.concurrent, r.concurrent != nil
}

// DistDetail returns the TCP engine's full result when this report came
// from EngineDist: the topology that ran, probe-round accounting, and the
// per-link byte counters (DistResult.LinkBytes[i][j] is the data-plane
// wire bytes shipped from worker i to worker j — through the coordinator's
// relay on "star", directly over the worker-to-worker link on "mesh").
func (r *Report) DistDetail() (*DistResult, bool) { return r.dist, r.dist != nil }
