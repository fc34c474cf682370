package reputation

import (
	"reflect"
	"sync"
	"testing"

	"collabnet/internal/xrand"
)

func randomGraph(t *testing.T, n int, density float64, seed uint64) *TrustGraph {
	t.Helper()
	rng := xrand.New(seed)
	g, err := NewTrustGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bool(density) {
				g.SetTrust(i, j, rng.Float64()*5)
			}
		}
	}
	return g
}

func mustWorkspace(t testing.TB, shards int) *EigenTrustWorkspace {
	t.Helper()
	ws, err := NewEigenTrustWorkspace(shards)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// solveShards runs one solve on a fresh workspace with the given shard
// count and returns a copy of the vector with the solve's stats.
func solveShards(t testing.TB, g Graph, cfg EigenTrustConfig, shards int) ([]float64, SolveStats) {
	t.Helper()
	ws := mustWorkspace(t, shards)
	v, err := ws.Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), v...), ws.LastStats()
}

// TestEigenTrustParallelMatchesSerial pins the multi-goroutine K>1 solves
// to the inline K=1 solve, bit for bit.
func TestEigenTrustParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{5, 23, 64} {
		g := randomGraph(t, n, 0.2, uint64(n))
		cfg := DefaultEigenTrust()
		serial, err := EigenTrust(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4, 7} {
			if par, _ := solveShards(t, g, cfg, k); !reflect.DeepEqual(par, serial) {
				t.Fatalf("n=%d k=%d: sharded solve %v differs from serial %v", n, k, par, serial)
			}
		}
	}
}

func TestEigenTrustParallelDeterministicAcrossRuns(t *testing.T) {
	// Bit-identical results across repeated multi-shard runs: goroutine
	// scheduling never reaches the arithmetic.
	g := randomGraph(t, 50, 0.25, 7)
	cfg := DefaultEigenTrust()
	first, _ := solveShards(t, g, cfg, 8)
	for run := 0; run < 5; run++ {
		if again, _ := solveShards(t, g, cfg, 8); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d: not bit-identical", run)
		}
	}
}

func TestEigenTrustParallelValidation(t *testing.T) {
	g := randomGraph(t, 5, 0.3, 1)
	ws := mustWorkspace(t, 2)
	if _, err := ws.Compute(g, EigenTrustConfig{Damping: 1, Epsilon: 1e-9, MaxIter: 5}); err == nil {
		t.Error("bad damping should fail")
	}
	if _, err := ws.Compute(g, EigenTrustConfig{Damping: 0.1, Epsilon: 0, MaxIter: 5}); err == nil {
		t.Error("bad epsilon should fail")
	}
	if _, err := ws.Compute(g, EigenTrustConfig{Damping: 0.1, Epsilon: 1e-9, MaxIter: 0}); err == nil {
		t.Error("bad MaxIter should fail")
	}
	cfg := DefaultEigenTrust()
	cfg.PreTrusted = []int{99}
	if _, err := ws.Compute(g, cfg); err == nil {
		t.Error("out-of-range pre-trusted should fail")
	}
	// More shards than peers must be fine.
	if _, err := mustWorkspace(t, 64).Compute(g, DefaultEigenTrust()); err != nil {
		t.Errorf("shards > n should leave surplus shards empty: %v", err)
	}
	for _, k := range []int{0, -1} {
		if _, err := NewEigenTrustWorkspace(k); err == nil {
			t.Errorf("NewEigenTrustWorkspace(%d) should fail", k)
		}
	}
}

// TestMaxFlowTrustParallelDegenerateMatchesSerial pins the all-zero-flow
// contract: when the evaluator reaches nobody — an empty graph, or an
// evaluator with trust flowing only toward it — MaxFlowTrust returns the
// all-zero vector (normalization skipped), and concurrent solves, each on
// its own graph and FlowWorkspace, return it bit-identically for every
// worker count instead of erroring or diverging.
func TestMaxFlowTrustParallelDegenerateMatchesSerial(t *testing.T) {
	cases := map[string]func(t *testing.T) Graph{
		"empty": func(t *testing.T) Graph {
			g, err := NewTrustGraph(8)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"evaluator-unreachable": func(t *testing.T) Graph {
			// Every edge points INTO peer 0; no flow can leave it.
			g, err := NewLogGraph(8)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 8; i++ {
				if err := g.AddTrust(i, 0, float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			return g
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			serial, err := MaxFlowTrust(build(t), 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range serial {
				if v != 0 {
					t.Fatalf("serial component %d = %v, want the all-zero vector", i, v)
				}
			}
			for _, workers := range []int{1, 3, 8} {
				graphs := make([]Graph, workers)
				for w := range graphs {
					graphs[w] = build(t)
				}
				outs := make([][]float64, workers)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var ws FlowWorkspace
						outs[w] = make([]float64, graphs[w].Len())
						errs[w] = ws.MaxFlowTrustInto(graphs[w], 0, outs[w])
					}(w)
				}
				wg.Wait()
				for w := 0; w < workers; w++ {
					if errs[w] != nil {
						t.Fatalf("workers=%d worker %d: %v", workers, w, errs[w])
					}
					if !reflect.DeepEqual(outs[w], serial) {
						t.Fatalf("workers=%d worker %d: concurrent %v differs from serial %v", workers, w, outs[w], serial)
					}
				}
			}
		})
	}
}
