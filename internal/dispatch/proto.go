// Package dispatch is the distributed execution backend for campaigns: a
// coordinator that shards a campaign's job graph across worker subprocesses
// and merges their results into one bundle that is ContentHash-identical to
// a single-process run.
//
// The shape follows the distributed-detection literature (autonomous
// analyzers over local shards, a coordinator aggregating evidence) mapped
// onto Achilles' job graph:
//
//   - the coordinator hands each job to the lowest-numbered free worker,
//     so no worker idles behind a straggler. Workers are spawned per run
//     and every one gets the same cache seed, so where a job runs earns no
//     cache reuse;
//   - coordinator and workers speak a versioned JSONL protocol over the
//     worker's stdin/stdout: the seed, jobs and collect requests flow down;
//     reports, manifests and collect replies flow up.
//     stderr is passed through for human eyes;
//   - a worker that crashes or closes its pipes mid-job has that job
//     requeued on another live worker; only when every worker is gone does
//     a job fail, with the pool's demise recorded in its manifest entry;
//   - verdicts stay where they were proved: the coordinator seeds every
//     worker with its cache at spawn and pulls back what the workers
//     computed (CollectCache) only when a caller persists the cache.
//
// Determinism: a job's manifest entry and report stream are a pure function
// of its inputs (the core contract pinned since PR 1 — class sets are
// parallelism-independent, report order is canonical). Which process runs a
// job, in which order, with which cache warmth therefore cannot change the
// bundle's stable content, so campaigns at -workers 1, 2 and N hash
// identically to the in-process engine. The wire carries the same
// structures the bundle persists (campaign.RunManifest, campaign.Report,
// solver.CacheEntry), re-marshalled by the coordinator into the bundle's
// canonical layout — bytes on disk never depend on a worker's encoder.
package dispatch

import (
	"encoding/json"
	"fmt"
	"io"

	"achilles/internal/campaign"
	"achilles/internal/solver"
)

// ProtoVersion is the wire-protocol revision. A coordinator refuses a
// worker that greets with a different revision — mixing protocol dialects
// mid-campaign could drop or misroute results, which is strictly worse than
// failing fast at spawn time.
const ProtoVersion = 2

// Message types, in the order they typically flow.
const (
	// msgHello is the worker's first line: protocol + engine revisions.
	msgHello = "hello"
	// msgJob assigns one job to a worker (coordinator → worker).
	msgJob = "job"
	// msgReport carries one Trojan report of the completed job, in canonical
	// order (worker → coordinator).
	msgReport = "report"
	// msgDone completes a job with its manifest entry (worker → coordinator).
	msgDone = "done"
	// msgCache carries verdicts: the seed (coordinator → worker) or a
	// collect reply with the request's ID (worker → coordinator).
	msgCache = "cache"
	// msgCollect asks for a worker's own verdicts (coordinator → worker).
	msgCollect = "collect"
	// msgShutdown asks the worker to exit cleanly (coordinator → worker).
	msgShutdown = "shutdown"
)

// message is the single JSONL envelope both directions share. One struct
// instead of a type hierarchy: the field set is small, encoding/json elides
// empty fields, and a worker built from a different tree fails the hello
// handshake before any sparse decoding could misroute a field.
type message struct {
	Type string `json:"t"`

	// hello
	Proto    int    `json:"proto,omitempty"`
	Campaign string `json:"campaign,omitempty"` // campaign.Version
	Solver   string `json:"solver,omitempty"`   // solver.Version

	// job / report / done / collect routing. IDs start at 1 so a
	// zero ID always means "malformed".
	ID int `json:"id,omitempty"`

	// job assignment
	Target      string `json:"target,omitempty"`
	Mode        string `json:"mode,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`

	// report / done payloads
	Report *campaign.Report      `json:"report,omitempty"`
	Run    *campaign.RunManifest `json:"run,omitempty"`

	// cache seed or collect reply
	Entries []solver.CacheEntry `json:"entries,omitempty"`
}

// wire wraps one side of a JSONL pipe pair. Writes are line-atomic under a
// caller-held mutex (see sender); reads are single-owner (the reader
// goroutine).
type wire struct {
	dec *json.Decoder
	enc *json.Encoder
}

func newWire(r io.Reader, w io.Writer) *wire {
	return &wire{dec: json.NewDecoder(r), enc: json.NewEncoder(w)}
}

func (w *wire) read() (message, error) {
	var m message
	if err := w.dec.Decode(&m); err != nil {
		return message{}, err
	}
	if m.Type == "" {
		return message{}, fmt.Errorf("dispatch: message without a type")
	}
	return m, nil
}

func (w *wire) write(m message) error {
	return w.enc.Encode(m)
}

// helloMessage is the greeting every worker opens with.
func helloMessage() message {
	return message{Type: msgHello, Proto: ProtoVersion, Campaign: campaign.Version, Solver: solver.Version}
}

// checkHello validates a worker greeting against this process's revisions.
func checkHello(m message) error {
	if m.Type != msgHello {
		return fmt.Errorf("dispatch: worker opened with %q, want %q", m.Type, msgHello)
	}
	if m.Proto != ProtoVersion || m.Campaign != campaign.Version || m.Solver != solver.Version {
		return fmt.Errorf("dispatch: version mismatch: worker speaks proto %d / %s / %s, coordinator speaks proto %d / %s / %s",
			m.Proto, m.Campaign, m.Solver, ProtoVersion, campaign.Version, solver.Version)
	}
	return nil
}
