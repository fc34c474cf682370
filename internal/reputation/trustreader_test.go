package reputation

import (
	"math"
	"reflect"
	"testing"
)

// seedReaderGraph loads a small fixed trust topology into g: a chain with a
// heavily-trusted hub so the solved vector has a clear deterministic order.
func seedReaderGraph(t *testing.T, g Graph) {
	t.Helper()
	edges := []Edge{
		{From: 0, To: 1, W: 4},
		{From: 1, To: 2, W: 3},
		{From: 2, To: 3, W: 5},
		{From: 3, To: 1, W: 2},
		{From: 4, To: 1, W: 6},
		{From: 4, To: 2, W: 1},
	}
	for _, e := range edges {
		if err := g.AddTrust(e.From, e.To, e.W); err != nil {
			t.Fatalf("AddTrust(%v): %v", e, err)
		}
	}
}

func TestTrustSolverReaderSemantics(t *testing.T) {
	lg, err := NewLogGraph(6)
	if err != nil {
		t.Fatal(err)
	}
	seedReaderGraph(t, lg)
	s, err := NewTrustSolver(lg, DefaultEigenTrust())
	if err != nil {
		t.Fatal(err)
	}

	// Pre-solve: nil snapshot, zero components, empty top-k.
	if s.TrustSnapshot() != nil {
		t.Fatal("snapshot before first solve should be nil")
	}
	if got := s.PeerTrust(1); got != 0 {
		t.Fatalf("PeerTrust before solve = %v, want 0", got)
	}
	if got := s.TopK(3, nil); len(got) != 0 {
		t.Fatalf("TopK before solve = %v, want empty", got)
	}

	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	snap := s.TrustSnapshot()
	if snap == nil || snap.Seq != 1 {
		t.Fatalf("snapshot after solve = %+v, want Seq 1", snap)
	}
	want, err := EigenTrust(lg, DefaultEigenTrust())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Vector, want) {
		t.Fatal("solver snapshot vector diverges from direct EigenTrust")
	}
	for p := -1; p <= 6; p++ {
		var exp float64
		if p >= 0 && p < len(want) {
			exp = want[p]
		}
		if got := s.PeerTrust(p); got != exp {
			t.Fatalf("PeerTrust(%d) = %v, want %v", p, got, exp)
		}
	}
}

func TestTopKDeterministicOrder(t *testing.T) {
	vec := []float64{0.1, 0.4, 0.1, 0.3, 0.4, 0.1}
	got := topKInto(vec, 4, nil)
	// Trust descending, peer ascending on ties.
	want := []PeerTrust{{1, 0.4}, {4, 0.4}, {3, 0.3}, {0, 0.1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("topK = %v, want %v", got, want)
	}
	if got := topKInto(vec, 0, nil); len(got) != 0 {
		t.Fatalf("topK(0) = %v, want empty", got)
	}
	if got := topKInto(vec, 99, nil); len(got) != len(vec) {
		t.Fatalf("topK(99) returned %d entries, want %d (clamped)", len(got), len(vec))
	}
	// Append semantics: results land after existing entries.
	pre := []PeerTrust{{Peer: -1, Trust: math.Inf(1)}}
	got = topKInto(vec, 1, pre)
	if len(got) != 2 || got[0] != pre[0] || got[1] != (PeerTrust{1, 0.4}) {
		t.Fatalf("append topK = %v", got)
	}
}

func TestConcurrentGraphTrustReaderMatchesSolver(t *testing.T) {
	const n = 6
	lg, err := NewLogGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	seedReaderGraph(t, lg)
	solver, err := NewTrustSolver(lg, DefaultEigenTrust())
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Solve(); err != nil {
		t.Fatal(err)
	}

	cg, err := NewConcurrentGraph(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cg.TrustSnapshot() != nil || cg.PeerTrust(0) != 0 || len(cg.TopK(3, nil)) != 0 {
		t.Fatal("concurrent reader should be empty before the first publish")
	}
	seedReaderGraph(t, cg)
	ws := mustWorkspace(t, 1)
	var vec []float64
	var solveErr error
	seq := cg.Exclusive(func(inner *LogGraph) {
		vec, solveErr = ws.Compute(inner, DefaultEigenTrust())
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	cg.PublishTrustAt(seq, vec)

	// The two TrustReader implementations must agree on every surface.
	var a, b TrustReader = solver, cg
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	for p := 0; p < n; p++ {
		if a.PeerTrust(p) != b.PeerTrust(p) {
			t.Fatalf("PeerTrust(%d): %v vs %v", p, a.PeerTrust(p), b.PeerTrust(p))
		}
	}
	if !reflect.DeepEqual(a.TopK(4, nil), b.TopK(4, nil)) {
		t.Fatalf("TopK: %v vs %v", a.TopK(4, nil), b.TopK(4, nil))
	}
	if !reflect.DeepEqual(a.TrustSnapshot().Vector, b.TrustSnapshot().Vector) {
		t.Fatal("snapshot vectors diverge between solver and concurrent store")
	}
}
