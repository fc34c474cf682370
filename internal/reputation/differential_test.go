package reputation

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

// dgCase is one randomized differential-test scenario.
type dgCase struct {
	n          int
	density    float64
	damping    float64
	preTrusted []int
	zeroRows   int // rows forcibly cleared to create dangling peers
	seed       uint64
}

// dgGraph materializes the scenario's graph: random edges at the given
// density, then zeroRows rows wiped to force dangling peers.
func (c dgCase) graph(t *testing.T) *TrustGraph {
	t.Helper()
	g := randomGraph(t, c.n, c.density, c.seed)
	rng := xrand.New(c.seed + 1)
	for r := 0; r < c.zeroRows; r++ {
		i := rng.Intn(c.n)
		for j := 0; j < c.n; j++ {
			if err := g.SetTrust(i, j, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func (c dgCase) config() EigenTrustConfig {
	cfg := DefaultEigenTrust()
	cfg.Damping = c.damping
	cfg.PreTrusted = c.preTrusted
	return cfg
}

// differentialCases sweeps n, density (including the empty and complete
// graphs), damping, pre-trusted sets, and forced dangling rows.
func differentialCases() []dgCase {
	var cases []dgCase
	seed := uint64(100)
	for _, n := range []int{1, 2, 3, 8, 17, 50, 120} {
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			for _, damping := range []float64{0, 0.15, 0.6} {
				seed++
				c := dgCase{n: n, density: density, damping: damping, seed: seed}
				switch seed % 3 {
				case 1:
					c.preTrusted = []int{0}
				case 2:
					if n > 2 {
						c.preTrusted = []int{1, n - 1}
					}
				}
				if seed%2 == 0 && n > 3 {
					c.zeroRows = 1 + int(seed%3)
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// TestEigenTrustCSRMatchesDenseBitIdentical pins the sparse path to the
// dense reference: identical inputs must give bit-identical outputs, not
// merely outputs within a tolerance.
func TestEigenTrustCSRMatchesDenseBitIdentical(t *testing.T) {
	for _, c := range differentialCases() {
		c := c
		t.Run(fmt.Sprintf("n=%d/d=%g/a=%g/seed=%d", c.n, c.density, c.damping, c.seed), func(t *testing.T) {
			g := c.graph(t)
			cfg := c.config()
			sparse, err := EigenTrust(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := EigenTrustDense(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sparse, dense) {
				for i := range sparse {
					if sparse[i] != dense[i] {
						t.Fatalf("component %d: sparse=%v dense=%v (diff %g)",
							i, sparse[i], dense[i], sparse[i]-dense[i])
					}
				}
				t.Fatalf("vectors differ structurally: %v vs %v", sparse, dense)
			}
		})
	}
}

// TestEigenTrustSerialMatchesParallelDeepEqual pins the determinism
// guarantee: every shard count — including more shards than peers —
// returns exactly the inline K=1 vector with the same round count.
func TestEigenTrustSerialMatchesParallelDeepEqual(t *testing.T) {
	for _, c := range differentialCases() {
		c := c
		t.Run(fmt.Sprintf("n=%d/d=%g/a=%g/seed=%d", c.n, c.density, c.damping, c.seed), func(t *testing.T) {
			g := c.graph(t)
			cfg := c.config()
			serial, st := solveShards(t, g, cfg, 1)
			for _, k := range []int{2, 3, 7, c.n + 1} {
				par, pst := solveShards(t, g, cfg, k)
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("k=%d diverges from serial:\n serial=%v\n par=%v", k, serial, par)
				}
				if pst.Iterations != st.Iterations || pst.Converged != st.Converged {
					t.Fatalf("k=%d: rounds/converged %d/%v vs serial %d/%v",
						k, pst.Iterations, pst.Converged, st.Iterations, st.Converged)
				}
			}
		})
	}
}

// TestEigenTrustShardStoreSweepMatchesDense is the solver's differential
// sweep: n × density × shard count × store. Every arm's cold solve — on a
// fresh plan and again on the reused plan after value churn and a
// structural change — must equal EigenTrustDense bit for bit, and the
// warm-started solve that follows must be bit-identical across all arms,
// since they all start from the same previous vector.
func TestEigenTrustShardStoreSweepMatchesDense(t *testing.T) {
	stores := []struct {
		name string
		make func(n int) (Graph, func())
	}{
		{"trustgraph", func(n int) (Graph, func()) { g, _ := NewTrustGraph(n); return g, func() {} }},
		{"loggraph", func(n int) (Graph, func()) { g, _ := NewLogGraph(n); return g, func() {} }},
		{"concurrent", func(n int) (Graph, func()) {
			g, _ := NewConcurrentGraph(n, 2)
			return g, g.Flush
		}},
	}
	for _, n := range []int{1, 2, 7, 40} {
		for _, density := range []float64{0, 0.1, 0.5} {
			seed := uint64(n)*101 + uint64(density*10)
			var warmRef []float64
			for _, store := range stores {
				for _, k := range []int{1, 2, 3, 8, n + 1} {
					name := fmt.Sprintf("n=%d/d=%g/%s/k=%d", n, density, store.name, k)
					g, flush := store.make(n)
					rng := xrand.New(seed)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if i != j && rng.Bool(density) {
								if err := g.SetTrust(i, j, rng.Float64()*5); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					flush()
					ws := mustWorkspace(t, k)
					cold := DefaultEigenTrust()
					cold.ColdStart = true
					check := func(stage string) {
						t.Helper()
						got, err := ws.Compute(g, cold)
						if err != nil {
							t.Fatal(err)
						}
						want, err := EigenTrustDense(g, cold)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(append([]float64(nil), got...), want) {
							t.Fatalf("%s %s: solve diverges from dense", name, stage)
						}
					}
					check("fresh")
					for _, e := range g.AppendEdges(nil) {
						if rng.Bool(0.5) {
							if err := g.AddTrust(e.From, e.To, rng.Float64()); err != nil {
								t.Fatal(err)
							}
						}
					}
					flush()
					check("value churn")
					if n > 2 {
						if err := g.SetTrust(0, n-1, 0); err != nil {
							t.Fatal(err)
						}
						if err := g.SetTrust(n-1, 1, 3); err != nil {
							t.Fatal(err)
						}
						flush()
					}
					check("structural churn")
					warm, err := ws.Compute(g, DefaultEigenTrust())
					if err != nil {
						t.Fatal(err)
					}
					if warmRef == nil {
						warmRef = append([]float64(nil), warm...)
					} else if !reflect.DeepEqual(append([]float64(nil), warm...), warmRef) {
						t.Fatalf("%s: warm solve diverges from the first arm's", name)
					}
				}
			}
		}
	}
}

// TestEigenTrustWorkspaceReuseMatchesFresh drives one workspace through a
// sequence of graphs (growing the pattern, changing values in place,
// shrinking n) and checks every result against a throwaway computation.
// ColdStart pins the bit-exact reference path; the warm-started default is
// covered by the tolerance-bounded suite in incremental_test.go.
func TestEigenTrustWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := mustWorkspace(t, 1)
	cfg := DefaultEigenTrust()
	cfg.ColdStart = true
	rng := xrand.New(42)
	for step := 0; step < 30; step++ {
		n := 2 + rng.Intn(40)
		g := randomGraph(t, n, 0.2, uint64(step)+500)
		for round := 0; round < 3; round++ {
			got, err := ws.Compute(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EigenTrustDense(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]float64(nil), got...), want) {
				t.Fatalf("step %d round %d: reused workspace diverges", step, round)
			}
			// Mutate values only (fast refresh path), then loop to verify.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g.Trust(i, j) > 0 && rng.Bool(0.5) {
						if err := g.AddTrust(i, j, rng.Float64()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// TestEigenTrustParallelWorkspaceReuse runs the multi-shard solver
// repeatedly on one workspace over changing graphs and checks bit-equality
// with the dense reference each time (ColdStart: the dense reference
// always starts from pre-trust).
func TestEigenTrustParallelWorkspaceReuse(t *testing.T) {
	cfg := DefaultEigenTrust()
	cfg.ColdStart = true
	for _, k := range []int{2, 5} {
		ws := mustWorkspace(t, k)
		for step := 0; step < 10; step++ {
			g := randomGraph(t, 60, 0.1, uint64(step)+900)
			got, err := ws.Compute(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EigenTrustDense(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]float64(nil), got...), want) {
				t.Fatalf("k=%d step %d: reused sharded workspace diverges from dense", k, step)
			}
		}
	}
}

// TestEigenTrustDenseAgreesWithLegacyBehavior keeps the dense reference
// anchored to the textbook fixed point: one hand-rolled damped iteration at
// the solution must reproduce it within convergence tolerance.
func TestEigenTrustDenseAgreesWithLegacyBehavior(t *testing.T) {
	g := randomGraph(t, 20, 0.3, 77)
	cfg := DefaultEigenTrust()
	tv, err := EigenTrustDense(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	p := make([]float64, n)
	cfg.fillPreTrust(p)
	next := make([]float64, n)
	dangling := 0.0
	for i := 0; i < n; i++ {
		row := g.NormalizedRow(i)
		if row == nil {
			dangling += tv[i]
			continue
		}
		for j, c := range row {
			next[j] += tv[i] * c
		}
	}
	for j := 0; j < n; j++ {
		next[j] = (1-cfg.Damping)*(next[j]+dangling*p[j]) + cfg.Damping*p[j]
		if math.Abs(next[j]-tv[j]) > 1e-6 {
			t.Fatalf("not a fixed point at %d: %v vs %v", j, next[j], tv[j])
		}
	}
}
