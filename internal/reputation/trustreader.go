package reputation

import "fmt"

// PeerTrust pairs a peer id with its global-trust value — the unit of top-k
// reports.
type PeerTrust struct {
	Peer  int     `json:"peer"`
	Trust float64 `json:"trust"`
}

// TrustReader is the read-only global-trust surface serving frontends
// consume: the last solved trust vector as an immutable snapshot, one
// component of it, and the k most-trusted peers. It deliberately exposes no
// mutation and no store internals, so a handler written against it works
// identically over the serial solver (TrustSolver) and the concurrent store
// (ConcurrentGraph) — the two implementations this package ships.
//
// Snapshot semantics: all three read methods observe the last *published*
// solve. Before the first solve, TrustSnapshot returns nil, PeerTrust
// returns 0, and TopK returns an empty slice — callers that need a vector
// unconditionally should solve (or wait for the publisher) first.
type TrustReader interface {
	// Len returns the number of peers the trust vector ranges over.
	Len() int
	// TrustSnapshot returns the last published trust snapshot (nil before
	// the first solve). The snapshot is immutable; callers may hold it
	// indefinitely without blocking later solves.
	TrustSnapshot() *TrustSnapshot
	// PeerTrust returns peer's component of the last published trust vector
	// (0 when out of range or before the first solve).
	PeerTrust(peer int) float64
	// TopK appends the k highest-trust peers to dst (trust descending, peer
	// id ascending on ties — fully deterministic) and returns the extended
	// slice. k larger than the peer count is clamped; k <= 0 or no published
	// vector appends nothing.
	TopK(k int, dst []PeerTrust) []PeerTrust
}

// topKInto implements the shared deterministic top-k selection: one pass
// over vec keeping the best k in insertion order (trust descending, peer
// ascending on ties). O(n·k) — intended for the small k of serving and
// inspection endpoints, allocating only the appended results.
func topKInto(vec []float64, k int, dst []PeerTrust) []PeerTrust {
	if k <= 0 || len(vec) == 0 {
		return dst
	}
	if k > len(vec) {
		k = len(vec)
	}
	base := len(dst)
	for p, t := range vec {
		// Find the insertion point among the current winners.
		cur := dst[base:]
		if len(cur) == k && !less(t, p, cur[k-1]) {
			continue
		}
		if len(cur) < k {
			dst = append(dst, PeerTrust{})
			cur = dst[base:]
		}
		i := len(cur) - 1
		for i > 0 && less(t, p, cur[i-1]) {
			cur[i] = cur[i-1]
			i--
		}
		cur[i] = PeerTrust{Peer: p, Trust: t}
	}
	return dst
}

// less reports whether candidate (t, p) ranks strictly ahead of have in the
// top-k order: higher trust first, lower peer id on equal trust.
func less(t float64, p int, have PeerTrust) bool {
	if t != have.Trust {
		return t > have.Trust
	}
	return p < have.Peer
}

// PeerTrust implements TrustReader over the last published trust snapshot —
// one atomic load plus an index, safe from any goroutine.
func (cg *ConcurrentGraph) PeerTrust(peer int) float64 {
	snap := cg.trust.Load()
	if snap == nil || peer < 0 || peer >= len(snap.Vector) {
		return 0
	}
	return snap.Vector[peer]
}

// TopK implements TrustReader over the last published trust snapshot. The
// snapshot is immutable, so the selection needs no pin and no lock.
func (cg *ConcurrentGraph) TopK(k int, dst []PeerTrust) []PeerTrust {
	snap := cg.trust.Load()
	if snap == nil {
		return dst
	}
	return topKInto(snap.Vector, k, dst)
}

// TrustSolver is the serial TrustReader implementation: a Graph (typically
// the edge-log LogGraph) paired with a reusable EigenTrustWorkspace. Solve
// recomputes the vector on demand and publishes it as an immutable
// TrustSnapshot whose Seq counts solves; the read side then mirrors
// ConcurrentGraph's snapshot semantics exactly. Like the stores it wraps,
// a TrustSolver is not safe for concurrent use — it is the single-threaded
// counterpart the inspection tooling and the serial replay checks consume.
type TrustSolver struct {
	g      Graph
	ws     *EigenTrustWorkspace
	cfg    EigenTrustConfig
	snap   *TrustSnapshot
	solves uint64
}

// NewTrustSolver wraps g with a fresh workspace. No solve runs until the
// first Solve call, mirroring the concurrent store's pre-publish state.
func NewTrustSolver(g Graph, cfg EigenTrustConfig) (*TrustSolver, error) {
	if g == nil {
		return nil, fmt.Errorf("reputation: NewTrustSolver(nil graph)")
	}
	ws, err := NewEigenTrustWorkspace(1)
	if err != nil {
		return nil, err
	}
	return &TrustSolver{g: g, ws: ws, cfg: cfg}, nil
}

// Solve recomputes the trust vector from the current graph state and
// publishes it as the reader-visible snapshot.
func (s *TrustSolver) Solve() error {
	vec, err := s.ws.Compute(s.g, s.cfg)
	if err != nil {
		return err
	}
	s.solves++
	s.snap = &TrustSnapshot{
		Seq:    s.solves,
		Vector: append(make([]float64, 0, len(vec)), vec...),
	}
	return nil
}

// Len implements TrustReader.
func (s *TrustSolver) Len() int { return s.g.Len() }

// TrustSnapshot implements TrustReader (nil before the first Solve).
func (s *TrustSolver) TrustSnapshot() *TrustSnapshot { return s.snap }

// PeerTrust implements TrustReader.
func (s *TrustSolver) PeerTrust(peer int) float64 {
	if s.snap == nil || peer < 0 || peer >= len(s.snap.Vector) {
		return 0
	}
	return s.snap.Vector[peer]
}

// TopK implements TrustReader.
func (s *TrustSolver) TopK(k int, dst []PeerTrust) []PeerTrust {
	if s.snap == nil {
		return dst
	}
	return topKInto(s.snap.Vector, k, dst)
}

// compile-time checks: both trust surfaces satisfy TrustReader.
var (
	_ TrustReader = (*ConcurrentGraph)(nil)
	_ TrustReader = (*TrustSolver)(nil)
)
