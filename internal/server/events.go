// Package server implements solver-as-a-service: a multi-tenant HTTP job
// server over the unified repro.Solve facade. Jobs arrive as JSON on
// POST /v1/solve, pass admission control into a bounded queue (503 +
// Retry-After when full), run on a fixed worker pool with per-signature
// scratch reuse, and stream back NDJSON progress events followed by the
// terminal repro.Report.
//
// A job does not rebuild the problem another job just solved: each server
// keeps built scenario instances in an LRU cache keyed by scenario,
// resolved n, seed and tuning, and hands every job with that key the same
// immutable instance. The cache holds at most 32 MiB, each entry charged
// the heap bytes allocated while it was built plus a 64 KiB slack; a
// failed build is never kept, and an instance charged more than the whole
// budget is served but not kept.
package server

import "repro"

// Event is one NDJSON line of a /v1/solve response stream. Type is always
// set; the other fields depend on it:
//
//	accepted  job admitted: JobID, Queued (depth behind it)
//	started   a worker picked the job up: JobID
//	progress  periodic liveness: JobID, Updates so far, ElapsedMS
//	report    terminal success: JobID, Report, Describe, ElapsedMS
//	error     terminal failure: JobID, Error, ElapsedMS
//
// Exactly one terminal event (report or error) ends every stream.
type Event struct {
	Type      string        `json:"type"`
	JobID     string        `json:"job_id,omitempty"`
	Queued    int           `json:"queued,omitempty"`
	Updates   int64         `json:"updates,omitempty"`
	ElapsedMS int64         `json:"elapsed_ms,omitempty"`
	Report    *repro.Report `json:"report,omitempty"`
	Describe  string        `json:"describe,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// Event types.
const (
	EventAccepted = "accepted"
	EventStarted  = "started"
	EventProgress = "progress"
	EventReport   = "report"
	EventError    = "error"
)

// ScenarioInfo is one entry of the GET /v1/scenarios listing.
type ScenarioInfo struct {
	Name     string `json:"name"`
	Summary  string `json:"summary"`
	DefaultN int    `json:"default_n"`
}

// Health is the GET /healthz body.
type Health struct {
	// Status is "ok" while accepting jobs, "draining" once shutdown began.
	Status string `json:"status"`
	// Queued is the number of admitted jobs waiting for a worker.
	Queued int `json:"queued"`
	// Running is the number of jobs currently on a worker.
	Running int64 `json:"running"`
	// Accepted / Rejected / Completed are lifetime counters: jobs admitted,
	// jobs refused by admission control (503), jobs finished (either way).
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	// ScratchCreated / ScratchReused count signature-pool checkouts that
	// allocated fresh state vs reused a returned one.
	ScratchCreated int64 `json:"scratch_created"`
	ScratchReused  int64 `json:"scratch_reused"`
	// InstancesBuilt / InstancesReused count jobs whose scenario instance
	// was built vs taken from the instance cache.
	InstancesBuilt  int64 `json:"instances_built"`
	InstancesReused int64 `json:"instances_reused"`
}
