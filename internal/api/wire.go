// Package api is the versioned wire surface of the experiment daemon:
// the JSON schema cmd/xeond serves, a typed HTTP client for it, and the
// structured error model both share. The daemon (internal/server), the
// CLI (cmd/xeonctl), and the remote shard backend (internal/shard) all
// build on this one package, so the three can never drift apart.
//
// Everything in this file is plain data. The request hash — the identity
// the server keys resumable study journals by — is computed from an
// explicit canonical serialization (see Hash), never from struct field
// order, so renaming or reordering a Go field can never silently orphan
// a journal.
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"xeonomp/internal/counters"
)

// StudyRequest is the POST /api/v1/study body: one named study of the
// paper plus the result-affecting knobs of core.Options. Zero values
// select the defaults noted per field, so `{"study":"single"}` is a
// complete full-scale request.
type StudyRequest struct {
	// Study is the short study name: "single", "pair" or "cross"
	// (core.StudyNames).
	Study string `json:"study"`
	// Scale multiplies every benchmark's instruction budget; 0 selects
	// 1.0, the paper's full workload. Servers cap it at their -max-scale.
	Scale float64 `json:"scale,omitempty"`
	// Seed is the trial seed; 0 selects 1, the golden artifacts' seed.
	Seed uint64 `json:"seed,omitempty"`
	// Policy is the thread-placement policy: "alternate" (default),
	// "block", "round-robin" or "symbiotic".
	Policy string `json:"policy,omitempty"`
}

// Normalized returns the request with defaults filled in — the form the
// server hashes, budgets, and executes.
func (r StudyRequest) Normalized() StudyRequest {
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Policy == "" {
		r.Policy = "alternate"
	}
	return r
}

// Canonical returns the canonical serialization of the normalized
// request: a JSON object with the fields in the pinned order study,
// scale, seed, policy, each value encoded by encoding/json. This is the
// byte layout Hash digests. It is deliberately independent of the Go
// struct's field order and tags, and TestCanonicalStability pins the
// exact bytes: changing them orphans every resumable study journal on
// every deployed daemon, so any change must bump the journal naming
// scheme alongside.
func (r StudyRequest) Canonical() ([]byte, error) {
	n := r.Normalized()
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, f := range []struct {
		key   string
		value any
	}{
		{"study", n.Study},
		{"scale", n.Scale},
		{"seed", n.Seed},
		{"policy", n.Policy},
	} {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(f.key)
		buf.WriteString(`":`)
		v, err := json.Marshal(f.value)
		if err != nil {
			return nil, fmt.Errorf("api: canonicalizing study request field %q: %w", f.key, err)
		}
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// Hash returns the content address of the normalized request — the
// identity the server keys study journals by, so an interrupted study
// resumes when the same request is submitted again, and the affinity
// input the shard layer partitions on.
func (r StudyRequest) Hash() (string, error) {
	b, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// Job states reported in StudyStatus.State and terminal progress events.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// StudyStatus is the GET /api/v1/study/{id} body (and the 202 response
// to a submission). Artifacts lists the golden artifact names available
// under /api/v1/study/{id}/artifacts/{name} once the job is done; each
// of those responses is byte-identical to the file a local
// `xeonchar -export-json` run writes for the same study and options.
type StudyStatus struct {
	ID          string   `json:"id"`
	Study       string   `json:"study"`
	State       string   `json:"state"`
	Cells       int      `json:"cells"`
	DoneCells   int      `json:"done_cells"`
	CachedCells int      `json:"cached_cells"`
	Error       string   `json:"error,omitempty"`
	Artifacts   []string `json:"artifacts,omitempty"`
}

// Event is one line of the /progress/{id} stream (newline-delimited
// JSON): a completed cell, or — when State is set — the job's terminal
// event. Seq is dense from 1 over the job's full history, which is what
// lets a reconnecting client detect gaps (ProgressStream does).
type Event struct {
	Seq    int    `json:"seq"`
	Cell   string `json:"cell,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	State  string `json:"state,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Terminal reports whether this is the job's final event.
func (e Event) Terminal() bool { return e.State != "" }

// CellRequest is the POST /api/v1/cell body: one simulation cell,
// executed synchronously. Benchmarks holds one program (single-program
// cell) or two (a co-scheduled pair, the paper's multi-program
// methodology). Defaults mirror StudyRequest.
type CellRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Config     string   `json:"config"`
	Scale      float64  `json:"scale,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
	Policy     string   `json:"policy,omitempty"`
}

// CellProgram is the one per-program result record: the run cache and
// study journals store it, CellResponse carries it, and the -json export
// prints it. Counters carries the program's non-zero hardware counters
// by event name — the full-fidelity payload every reader rebuilds its
// result from (metrics are re-derived from counters on decode, so a
// stored or served cell can never disagree with what counters.Derive
// produces there). Metrics is the derived view for human readers and
// thin clients: the wire and the export set it, cache and journal
// payloads leave it nil, so their bytes carry no metrics key.
type CellProgram struct {
	Benchmark string            `json:"benchmark"`
	Threads   int               `json:"threads"`
	Cycles    int64             `json:"cycles"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
	Metrics   *counters.Metrics `json:"metrics,omitempty"`
}

// CellResponse is the POST /api/v1/cell response. Cached reports whether
// the cell was served from the shared run cache, journal, or an
// identical in-flight computation rather than simulated for this call.
type CellResponse struct {
	Cached     bool          `json:"cached"`
	WallCycles int64         `json:"wall_cycles"`
	Programs   []CellProgram `json:"programs"`
}

// ErrorResponse is the body of every non-2xx JSON response. Code is one
// of the Code* constants (errors.go); clients should branch on it (via
// Client's typed errors), never on the human-readable Error text.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
