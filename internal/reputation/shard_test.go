package reputation

import (
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

// TestShardPlanMatchesCSR pins the emission: for every shard count, the
// concatenated slices must reproduce the single-slice (K=1) plan — the
// global transposed layout — bit-for-bit: same sources in the same order, same
// normalized values, same dangling list, with the shard ranges tiling
// [0, n).
func TestShardPlanMatchesCSR(t *testing.T) {
	for _, n := range []int{1, 2, 7, 10, 60} {
		for _, density := range []float64{0, 0.1, 0.4} {
			g := randomLogGraph(t, n, density, uint64(n)*31+uint64(density*100))
			whole := mustPlan(t, g.Clone(), 1).Slice(0)
			for _, k := range []int{2, 3, 5, 8, 64} {
				p := mustPlan(t, g, k)
				if p.Shards() != k || p.Len() != n || p.NNZ() != whole.NNZ() {
					t.Fatalf("n=%d k=%d: plan shape %d/%d/%d vs K=1 %d/%d", n, k, p.Shards(), p.Len(), p.NNZ(), n, whole.NNZ())
				}
				next := 0
				for s := 0; s < k; s++ {
					sl := p.Slice(s)
					if sl.Lo != next {
						t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d", n, k, s, sl.Lo, next)
					}
					next = sl.Hi
					for r := 0; r < sl.Rows(); r++ {
						wantCols, wantVals := sliceRow(whole, sl.Lo+r)
						gotCols, gotVals := sliceRow(sl, r)
						if !reflect.DeepEqual(gotCols, wantCols) || !reflect.DeepEqual(gotVals, wantVals) {
							t.Fatalf("n=%d k=%d: slice row for destination %d diverges from K=1", n, k, sl.Lo+r)
						}
					}
					if !reflect.DeepEqual(sl.Dangling, whole.Dangling) {
						t.Fatalf("n=%d k=%d shard %d: dangling list diverges", n, k, s)
					}
				}
				if next != n {
					t.Fatalf("n=%d k=%d: shard ranges end at %d", n, k, next)
				}
			}
		}
	}
}

// TestShardedColdBitIdenticalToSerial sweeps n × density × shard count and
// pins that the cold sharded solve equals the inline K=1 solve bit-for-bit
// — vector, round count, and convergence flag — including all-dangling
// graphs (density 0) and more shards than peers.
func TestShardedColdBitIdenticalToSerial(t *testing.T) {
	cfg := DefaultEigenTrust()
	for _, n := range []int{1, 3, 10, 40, 150} {
		for _, density := range []float64{0, 0.05, 0.3} {
			g := randomLogGraph(t, n, density, uint64(n)*7+uint64(density*1000))
			want, wantStats := solveShards(t, g, cfg, 1)
			for _, k := range []int{2, 3, 5, 8, 32} {
				got, st := solveShards(t, g, cfg, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d density=%g k=%d: sharded cold solve diverges from serial", n, density, k)
				}
				if st.Iterations != wantStats.Iterations || st.Converged != wantStats.Converged {
					t.Fatalf("n=%d density=%g k=%d: rounds/converged %d/%v vs serial %d/%v",
						n, density, k, st.Iterations, st.Converged, wantStats.Iterations, wantStats.Converged)
				}
			}
		}
	}
}

// TestShardedPreTrustedBitIdentical covers the teleportation corner: a
// non-uniform pre-trust distribution must flow through the sharded solve
// (per-shard p ranges, dangling redistribution) bit-identically.
func TestShardedPreTrustedBitIdentical(t *testing.T) {
	cfg := DefaultEigenTrust()
	cfg.PreTrusted = []int{0, 7, 31}
	g := randomLogGraph(t, 80, 0.08, 301)
	// Force dangling rows so the dangling mass hits the pre-trust set.
	for _, r := range []int{7, 20, 79} {
		if err := g.ClearPeer(r); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := solveShards(t, g, cfg, 1)
	for _, k := range []int{2, 4, 7} {
		if got, _ := solveShards(t, g, cfg, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: pre-trusted sharded solve diverges from serial", k)
		}
	}
}

// TestShardedWarmLockstepWithSerial drives a serial workspace and sharded
// workspaces of several shard counts through one identical solve/churn
// schedule and pins bit-identity — vector and iteration count — at every
// step. Warm starts compose: each step's solve starts from the previous
// step's (identical) eigenvector.
func TestShardedWarmLockstepWithSerial(t *testing.T) {
	cfg := DefaultEigenTrust()
	n := 60
	serialG := randomLogGraph(t, n, 0.12, 97)
	ws := mustWorkspace(t, 1)
	type arm struct {
		k  int
		g  *LogGraph
		sw *EigenTrustWorkspace
	}
	var arms []arm
	for _, k := range []int{2, 3, 8} {
		arms = append(arms, arm{k: k, g: randomLogGraph(t, n, 0.12, 97), sw: mustWorkspace(t, k)})
	}
	rng := xrand.New(13)
	var ops [][3]int // replayed identically onto every arm's graph
	churn := func(g *LogGraph, ops [][3]int) {
		for _, op := range ops {
			var err error
			switch op[0] {
			case 0:
				err = g.AddTrust(op[1], op[2], float64(op[1]+op[2])*0.01)
			case 1:
				err = g.SetTrust(op[1], op[2], float64(op[2])*0.1)
			default:
				err = g.ClearPeer(op[1])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for step := 0; step < 8; step++ {
		want, err := ws.Compute(serialG, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arms {
			got, err := a.sw.Compute(a.g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]float64{}, got...), append([]float64{}, want...)) {
				t.Fatalf("step %d k=%d: warm sharded solve diverges from serial", step, a.k)
			}
			if a.sw.LastStats().Iterations != ws.LastStats().Iterations {
				t.Fatalf("step %d k=%d: iteration counts diverge (%d vs %d)",
					step, a.k, a.sw.LastStats().Iterations, ws.LastStats().Iterations)
			}
			if step > 0 && !a.sw.LastStats().Warm {
				t.Fatalf("step %d k=%d: expected a warm sharded solve", step, a.k)
			}
		}
		ops = ops[:0]
		for c := 0; c < 6; c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			kind := 0
			if rng.Bool(0.3) {
				kind = 1
			}
			ops = append(ops, [3]int{kind, i, j})
		}
		if step == 4 {
			ops = append(ops, [3]int{2, rng.Intn(n), 0})
		}
		churn(serialG, ops)
		for _, a := range arms {
			churn(a.g, ops)
		}
	}
}

// TestShardedChurnProperty is the randomized property test: random graphs,
// random churn (value bumps, structural flips, row clears), solves at
// random points, serial vs sharded in lockstep, several seeds. Any
// divergence — bits, rounds, warm flags — fails.
func TestShardedChurnProperty(t *testing.T) {
	cfg := DefaultEigenTrust()
	for _, seed := range []uint64{5, 23, 71} {
		rng := xrand.New(seed)
		n := 15 + rng.Intn(50)
		k := 2 + rng.Intn(6)
		serialG := randomLogGraph(t, n, 0.1, seed*11)
		shardG := randomLogGraph(t, n, 0.1, seed*11)
		ws := mustWorkspace(t, 1)
		sw := mustWorkspace(t, k)
		for step := 0; step < 15; step++ {
			for c := 0; c < 1+rng.Intn(7); c++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				var apply func(g *LogGraph) error
				switch {
				case rng.Bool(0.6):
					w := rng.Float64()
					apply = func(g *LogGraph) error { return g.AddTrust(i, j, w) }
				case rng.Bool(0.5):
					w := rng.Float64() * 4
					apply = func(g *LogGraph) error { return g.SetTrust(i, j, w) }
				case rng.Bool(0.5):
					apply = func(g *LogGraph) error { return g.SetTrust(i, j, 0) }
				default:
					apply = func(g *LogGraph) error { return g.ClearPeer(i) }
				}
				if err := apply(serialG); err != nil {
					t.Fatal(err)
				}
				if err := apply(shardG); err != nil {
					t.Fatal(err)
				}
			}
			if !rng.Bool(0.6) {
				continue // churn more before the next solve
			}
			want, err := ws.Compute(serialG, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.Compute(shardG, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]float64{}, got...), append([]float64{}, want...)) {
				t.Fatalf("seed %d step %d (n=%d k=%d): sharded solve diverges from serial", seed, step, n, k)
			}
			ss, ws2 := sw.LastStats(), ws.LastStats()
			if ss.Iterations != ws2.Iterations || ss.Warm != ws2.Warm || ss.Converged != ws2.Converged {
				t.Fatalf("seed %d step %d: stats diverge (%+v vs %+v)", seed, step, ss, ws2)
			}
		}
	}
}

// TestShardPlanDirtyRefresh pins the incremental refresh of the per-shard
// slices: value-only churn must take the dirty-rows path (with accurate
// RefreshStats), and the refreshed slices must equal a fresh emission
// bit-for-bit.
func TestShardPlanDirtyRefresh(t *testing.T) {
	g := randomLogGraph(t, 60, 0.15, 19)
	p, err := NewShardPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.LastRefresh(); st.PatternStable || st.RowsTouched != 60 {
		t.Fatalf("emission stats: %+v", st)
	}
	for _, i := range []int{4, 17, 42} {
		if err := g.AddTrust(i, firstEdge(t, g, i), 0.25); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Refresh(g) {
		t.Fatal("value-only churn forced a re-emission")
	}
	st := p.LastRefresh()
	if !st.PatternStable || !st.DirtyOnly || st.RowsTouched != 3 {
		t.Fatalf("expected dirty-only refresh of 3 rows, got %+v", st)
	}
	fresh, err := NewShardPlan(g.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Slices(), fresh.Slices()) {
		t.Fatal("dirty-row refresh diverges from fresh emission")
	}

	// A structural change (guaranteed-new edge) must re-emit and report it.
	newTo := -1
	for j := 0; j < 60; j++ {
		if j != 4 && g.Trust(4, j) == 0 {
			newTo = j
			break
		}
	}
	if newTo < 0 {
		t.Fatal("row 4 is full")
	}
	if err := g.SetTrust(4, newTo, 1.5); err != nil {
		t.Fatal(err)
	}
	if p.Refresh(g) {
		t.Fatal("structural churn reported a pattern-stable refresh")
	}
	if st := p.LastRefresh(); st.PatternStable {
		t.Fatalf("re-emission stats: %+v", st)
	}
}

// TestShardPlanMultiConsumerFallback pins the consumption protocol across
// plans of different shard counts: two plans following one log each fall
// back to the full value pass — reported as such, never silently — when the
// other consumed a dirty span first, and stay exact.
func TestShardPlanMultiConsumerFallback(t *testing.T) {
	g := randomLogGraph(t, 30, 0.2, 13)
	c := mustPlan(t, g, 1)
	p := mustPlan(t, g, 3)
	bump := func() {
		if err := g.AddTrust(3, firstEdge(t, g, 3), 0.5); err != nil {
			t.Fatal(err)
		}
	}

	bump()
	c.Refresh(g) // consumes; bumps the generation past p's record
	if !c.LastRefresh().DirtyOnly {
		t.Fatalf("K=1 plan should take the dirty path, got %+v", c.LastRefresh())
	}
	bump()
	if !p.Refresh(g) {
		t.Fatal("missed span must not force a re-emission")
	}
	if st := p.LastRefresh(); st.DirtyOnly || !st.PatternStable || st.RowsTouched != 30 {
		t.Fatalf("expected full value-pass fallback, got %+v", st)
	}
	if !reflect.DeepEqual(p.Slices(), mustPlan(t, g.Clone(), 3).Slices()) {
		t.Fatal("fallback refresh diverges from fresh emission")
	}
	// And the K=1 plan missed p's consumption in turn.
	bump()
	c.Refresh(g)
	if c.LastRefresh().DirtyOnly {
		t.Fatal("K=1 plan with a missed span took the dirty path")
	}
	if !reflect.DeepEqual(densify(c), densify(mustPlan(t, g.Clone(), 1))) {
		t.Fatal("K=1 fallback refresh diverges from rebuild")
	}
}

// TestShardedStatsAccounting pins the exchange accounting: the start
// broadcast ships K full vectors and each round every destination range
// crosses the wire K times (K−1 peers plus the combiner), so
// BytesExchanged = 8nK(1+rounds) exactly for K>1, while the inline K=1
// solve exchanges nothing; the per-shard rows/nnz must tile the matrix.
func TestShardedStatsAccounting(t *testing.T) {
	g := randomLogGraph(t, 50, 0.15, 47)
	cfg := DefaultEigenTrust()
	for _, k := range []int{1, 2, 4, 9} {
		_, st := solveShards(t, g, cfg, k)
		wantBytes := int64(8*50*k) * int64(1+st.Iterations)
		if k == 1 {
			wantBytes = 0
		}
		if st.Shards != k || st.BytesExchanged != wantBytes {
			t.Fatalf("k=%d: Shards = %d, BytesExchanged = %d, want %d", k, st.Shards, st.BytesExchanged, wantBytes)
		}
		rows, nnz := 0, 0
		for s := 0; s < k; s++ {
			rows += st.ShardRows[s]
			nnz += st.ShardNNZ[s]
		}
		if rows != 50 || nnz != g.NNZ() {
			t.Fatalf("k=%d: shard split covers %d rows / %d nnz, want 50 / %d", k, rows, nnz, g.NNZ())
		}
	}
}

// TestShardedSeedWarm pins the snapshot-restore contract: a sharded
// workspace seeded with a serial solve's vector runs its next solve warm
// and bit-identical to the serial workspace that actually solved.
func TestShardedSeedWarm(t *testing.T) {
	cfg := DefaultEigenTrust()
	g := randomLogGraph(t, 45, 0.15, 53)
	ws := mustWorkspace(t, 1)
	first, err := ws.Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := mustWorkspace(t, 3)
	sw.SeedWarm(first)
	for i := 0; i < 10; i++ {
		if err := g.AddTrust(i, firstEdge(t, g, i), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ws.Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.Compute(g.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sw.LastStats().Warm {
		t.Fatal("seeded workspace solved cold")
	}
	if !reflect.DeepEqual(append([]float64{}, got...), append([]float64{}, want...)) {
		t.Fatal("seeded sharded solve diverges from the serial workspace")
	}
	sw.ResetWarm()
	if _, err := sw.Compute(g.Clone(), cfg); err != nil {
		t.Fatal(err)
	}
	if sw.LastStats().Warm {
		t.Fatal("ResetWarm did not force a cold solve")
	}
}

// TestShardedSeedWarmAfterRestore is the warm-restart round trip at K>1:
// the edges and vector a K=1 solver saved, loaded into a fresh store and
// seeded into a fresh sharded workspace, must continue warm and
// bit-identically to the original through later churn.
func TestShardedSeedWarmAfterRestore(t *testing.T) {
	cfg := DefaultEigenTrust()
	g := randomLogGraph(t, 40, 0.12, 29)
	ws := mustWorkspace(t, 1)
	v, err := ws.Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved, edges := append([]float64(nil), v...), g.AppendEdges(nil)
	for _, k := range []int{2, 3, 8} {
		orig, origWS := g.Clone(), mustWorkspace(t, 1)
		origWS.SeedWarm(saved)
		restored, err := NewLogGraph(40)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadEdges(edges); err != nil {
			t.Fatal(err)
		}
		sw := mustWorkspace(t, k)
		sw.SeedWarm(saved)
		rng := xrand.New(uint64(k))
		for step := 0; step < 4; step++ {
			for c := 0; c < 15; c++ {
				d, s := rng.Intn(40), rng.Intn(40)
				if d == s {
					continue
				}
				if err := orig.AddTrust(d, s, 2); err != nil {
					t.Fatal(err)
				}
				if err := restored.AddTrust(d, s, 2); err != nil {
					t.Fatal(err)
				}
			}
			want, err := origWS.Compute(orig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.Compute(restored, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sw.LastStats().Warm {
				t.Fatalf("k=%d step %d: restored sharded solver ran cold", k, step)
			}
			if !reflect.DeepEqual(append([]float64(nil), got...), append([]float64(nil), want...)) {
				t.Fatalf("k=%d step %d: restored sharded solve diverges", k, step)
			}
		}
	}
}

// TestShardedErrors pins the constructor and configuration error paths.
func TestShardedErrors(t *testing.T) {
	if _, err := NewEigenTrustWorkspace(0); err == nil {
		t.Fatal("NewEigenTrustWorkspace(0) should fail")
	}
	if _, err := NewShardPlan(randomLogGraph(t, 5, 0.3, 1), 0); err == nil {
		t.Fatal("NewShardPlan(k=0) should fail")
	}
	bad := DefaultEigenTrust()
	bad.Damping = 1.5
	if _, err := mustWorkspace(t, 2).Compute(randomLogGraph(t, 5, 0.3, 1), bad); err == nil {
		t.Fatal("invalid config should fail")
	}
}
