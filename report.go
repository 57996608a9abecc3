package repro

// The unified Report: every engine reports the shared outcome (final
// iterate, convergence, counts, error/residual series, macro-iteration
// sequences) in the same shape, so metrics and trace tooling consume any
// engine's run uniformly. Engine-specific detail stays reachable through
// the typed accessors.

import (
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
// The per-iteration log (S_j, labels, worker — one IterationRecord per
// iteration) is not part of a Report. It is the raw material of the
// macro-iteration and epoch analysis, whose results the Report carries
// (Boundaries, StrictBoundaries, Epochs); only in-process analysis reads
// it, and on the wire it would be 97% of a served report's bytes. The
// simulators keep it on their results, SimDetail().Records and
// SimSyncDetail().Records. The model engine builds it only when an
// in-process core.Config asks (KeepRecords), which a Solve never does, so
// ModelDetail().Records of a solve is nil. A "records" member in a
// payload from a version that shipped it is skipped like any unknown key.
//
// The struct tags below document the wire keys and order; the codec is the
// MarshalJSON / UnmarshalJSON pair in report_json.go (a hand-written
// encoder, encoding/json under the decoder), held to the tags by the
// differential tests against a reflective codec built from them
// (report_json_test.go).
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
	// UpdatesPerWorker counts completed phases per worker (worker-based
	// engines).
	UpdatesPerWorker []int `json:"updates_per_worker,omitempty"`
	// MessagesSent / MessagesDropped / MessagesStale count transport
	// events (simulated, message and dist engines; on message, a drop is a
	// block superseded in its mailbox before the peer read it).
	MessagesSent    int64 `json:"messages_sent,omitempty"`
	MessagesDropped int64 `json:"messages_dropped,omitempty"`
	MessagesStale   int64 `json:"messages_stale,omitempty"`
	// MessagesReordered counts frames a sender discarded unwritten because a
	// later-sequenced frame from the same source had already gone out on that
	// leg or was due on it as well (a leg writes only its newest due frame,
	// so a fault-free run can report some; a frame a star worker's uplink
	// sheds counts once per peer, like its send); MessagesDuplicate counts
	// discards of frames whose sequence number exactly matched the newest
	// written (dist engine — disjoint from each other and from
	// MessagesStale/Dropped).
	MessagesReordered int64 `json:"messages_reordered,omitempty"`
	MessagesDuplicate int64 `json:"messages_duplicate,omitempty"`
	// BytesSent / BytesReceived count wire bytes through the coordinator
	// (dist engine).
	BytesSent     int64 `json:"bytes_sent,omitempty"`
	BytesReceived int64 `json:"bytes_received,omitempty"`
	// WorkersLost / WorkersRejoined count worker links declared dead and
	// fresh connections installed into a vacated slot mid-solve;
	// Resharding counts completed re-shard barriers (dist engine; all zero
	// on a churn-free run).
	WorkersLost     int64 `json:"workers_lost,omitempty"`
	WorkersRejoined int64 `json:"workers_rejoined,omitempty"`
	Resharding      int64 `json:"resharding,omitempty"`
	// Time is the virtual clock at stop (simulated engines).
	Time float64 `json:"time,omitempty"`
	// Elapsed is the wall-clock duration (goroutine and dist engines),
	// marshalled as integer nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// PerWorker splits each worker's elapsed time into compute, publish,
	// drain and parked (shared and message engines, when Spec.Trace is set).
	PerWorker []WorkerStats `json:"per_worker,omitempty"`

	model      *core.Result
	sim        *des.Result
	simSync    *des.SyncResult
	concurrent *runtime.Result
	dist       *dist.Result
}

// finish fills in the outcome fields every engine can provide uniformly:
// the fixed-point residual at X and, when XStar is known, the exact error.
// The model engine has evaluated its residual already (core.Run, on its own
// scratch); the others evaluate it here, once, on worker 0's scratch of
// spec.Scratch when one is attached — the solve is over, the scratch is
// free.
func (r *Report) finish(spec Spec) {
	if r.model == nil && r.X != nil {
		if scrs := spec.Scratch.workerScratches(1); scrs != nil {
			r.FinalResidual = operators.ResidualWith(spec.Op, scrs[0], r.X)
		} else {
			r.FinalResidual = operators.Residual(spec.Op, r.X)
		}
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
