package reputation

import (
	"math"
	"testing"
)

func TestTrustGraphBasics(t *testing.T) {
	g, err := NewTrustGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.SetTrust(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if got := g.Trust(0, 1); got != 2.5 {
		t.Errorf("Trust(0,1) = %v", got)
	}
	if got := g.Trust(1, 0); got != 0 {
		t.Errorf("reverse edge should be absent, got %v", got)
	}
}

func TestTrustGraphRejectsOutOfRange(t *testing.T) {
	g, _ := NewTrustGraph(3)
	if err := g.SetTrust(-1, 0, 1); err == nil {
		t.Error("negative from should error")
	}
	if err := g.SetTrust(0, 3, 1); err == nil {
		t.Error("to out of range should error")
	}
	if err := g.AddTrust(5, 0, 1); err == nil {
		t.Error("AddTrust out of range should error")
	}
	if _, err := NewTrustGraph(0); err == nil {
		t.Error("empty graph should error")
	}
}

func TestTrustGraphSelfAndNegative(t *testing.T) {
	g, _ := NewTrustGraph(3)
	if err := g.SetTrust(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if g.Trust(1, 1) != 0 {
		t.Error("self trust should be ignored")
	}
	g.SetTrust(0, 1, -4)
	if g.Trust(0, 1) != 0 {
		t.Error("negative trust should clamp to 0")
	}
	g.SetTrust(0, 1, 3)
	g.SetTrust(0, 1, 0)
	if g.OutDegree(0) != 0 {
		t.Error("zero trust should remove the edge")
	}
}

func TestTrustGraphAddAccumulates(t *testing.T) {
	g, _ := NewTrustGraph(3)
	g.AddTrust(0, 1, 1)
	g.AddTrust(0, 1, 2)
	if got := g.Trust(0, 1); got != 3 {
		t.Errorf("accumulated trust = %v, want 3", got)
	}
	g.AddTrust(0, 2, -1) // ignored
	if g.Trust(0, 2) != 0 {
		t.Error("negative AddTrust should be ignored")
	}
}

func TestNormalizedRow(t *testing.T) {
	g, _ := NewTrustGraph(4)
	g.SetTrust(0, 1, 1)
	g.SetTrust(0, 2, 3)
	row := g.NormalizedRow(0)
	if math.Abs(row[1]-0.25) > 1e-12 || math.Abs(row[2]-0.75) > 1e-12 {
		t.Errorf("normalized row = %v", row)
	}
	if g.NormalizedRow(3) != nil {
		t.Error("isolated peer should have nil row")
	}
	if g.NormalizedRow(-1) != nil {
		t.Error("out of range should have nil row")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := NewTrustGraph(3)
	g.SetTrust(0, 1, 1)
	cp := g.Clone()
	cp.SetTrust(0, 1, 9)
	if g.Trust(0, 1) != 1 {
		t.Error("Clone shares storage")
	}
	if cp.Trust(0, 1) != 9 {
		t.Error("Clone missing data")
	}
}

func TestOutEdgesVisitsAll(t *testing.T) {
	g, _ := NewTrustGraph(5)
	g.SetTrust(2, 0, 1)
	g.SetTrust(2, 3, 2)
	g.SetTrust(2, 4, 3)
	sum := 0.0
	n := 0
	g.OutEdges(2, func(to int, w float64) { sum += w; n++ })
	if n != 3 || sum != 6 {
		t.Errorf("visited %d edges with total %v", n, sum)
	}
	g.OutEdges(99, func(int, float64) { t.Error("out of range should visit nothing") })
}

func TestTrustGraphClear(t *testing.T) {
	g, _ := NewTrustGraph(4)
	g.SetTrust(0, 1, 2)
	g.SetTrust(1, 2, 3)
	g.SetTrust(3, 0, 1)
	g.Clear()
	if g.Len() != 4 {
		t.Fatalf("Clear changed peer count to %d", g.Len())
	}
	for i := 0; i < 4; i++ {
		if g.OutDegree(i) != 0 {
			t.Fatalf("peer %d still has %d edges after Clear", i, g.OutDegree(i))
		}
	}
	// The graph must remain usable.
	if err := g.SetTrust(2, 3, 5); err != nil {
		t.Fatal(err)
	}
	if g.Trust(2, 3) != 5 {
		t.Fatal("cleared graph rejected new trust")
	}
}

// TestNonFiniteWeightsRejected pins the admission rule every store shares:
// NaN and ±Inf weights are an error at SetTrust, AddTrust, and LoadEdges,
// and leave no statement behind — a single accepted NaN used to turn every
// EigenTrust component into NaN with a nil error.
func TestNonFiniteWeightsRejected(t *testing.T) {
	stores := map[string]func() Graph{
		"trustgraph": func() Graph { g, _ := NewTrustGraph(4); return g },
		"loggraph":   func() Graph { g, _ := NewLogGraph(4); return g },
		"concurrent": func() Graph { g, _ := NewConcurrentGraph(4, 2); return g },
	}
	entries := map[string]func(g Graph, w float64) error{
		"SetTrust":  func(g Graph, w float64) error { return g.SetTrust(3, 0, w) },
		"AddTrust":  func(g Graph, w float64) error { return g.AddTrust(3, 0, w) },
		"LoadEdges": func(g Graph, w float64) error { return g.LoadEdges([]Edge{{From: 3, To: 0, W: w}}) },
	}
	for store, mk := range stores {
		for entry, call := range entries {
			t.Run(store+"/"+entry, func(t *testing.T) {
				for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					g := mk()
					if err := call(g, w); err == nil {
						t.Fatalf("w=%v accepted", w)
					}
					if edges := g.AppendEdges(nil); len(edges) != 0 {
						t.Fatalf("w=%v left edges behind: %v", w, edges)
					}
					tv, err := EigenTrust(g, DefaultEigenTrust())
					if err != nil {
						t.Fatal(err)
					}
					for i, x := range tv {
						if x != 0.25 {
							t.Fatalf("w=%v: trust[%d] = %v, want uniform", w, i, x)
						}
					}
				}
			})
		}
	}
}
