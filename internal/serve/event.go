package serve

import (
	"fmt"
	"math"
)

// Event types accepted by the ingest plane.
const (
	// EventTrust is an explicit trust statement: From asserts local trust W
	// in To (accumulating, or overwriting when Set).
	EventTrust = "trust"
	// EventContrib is a contribution receipt: downloader From received W
	// units of delivered bandwidth from source To. It accumulates onto
	// From's local trust in To — EigenTrust's sat(i,j) counter, the same
	// mapping incentive.GlobalTrust.RecordTransfer applies.
	EventContrib = "contrib"
)

// Event is one ingested statement. Its source peer — the author whose
// statement order must be preserved — is always From.
type Event struct {
	Type string  `json:"type"`
	From int     `json:"from"`
	To   int     `json:"to"`
	W    float64 `json:"w"`
	// Set selects overwrite semantics for trust events (zero deletes the
	// edge); ignored for contributions.
	Set bool `json:"set,omitempty"`
}

// validate reports the first reason e cannot be admitted to an n-peer
// store. Range, sign, and non-finite-weight errors are rejected at
// admission (400) rather than silently dropped at apply time, so an
// acknowledged event is always a state-changing one.
func (e Event) validate(n int) error {
	if e.Type != EventTrust && e.Type != EventContrib {
		return fmt.Errorf("unknown event type %q", e.Type)
	}
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
		return fmt.Errorf("edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
	}
	if e.From == e.To {
		return fmt.Errorf("self-edge (%d,%d)", e.From, e.To)
	}
	if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
		return fmt.Errorf("weight must be finite, got %v", e.W)
	}
	switch {
	case e.Type == EventContrib && e.W <= 0:
		return fmt.Errorf("contribution amount must be > 0, got %v", e.W)
	case e.Type == EventTrust && !e.Set && e.W <= 0:
		return fmt.Errorf("accumulated trust must be > 0, got %v", e.W)
	case e.Type == EventTrust && e.Set && e.W < 0:
		return fmt.Errorf("overwritten trust must be >= 0, got %v", e.W)
	}
	return nil
}
