package main

import (
	"fmt"

	"collabnet/internal/reputation"
)

// shardStats measures destination-range shard balance on the deterministic
// collusion-plus-churn workload: for K ∈ {2,4,8} it emits the per-shard
// transposed slices, reports each shard's rows, nnz, and per-round outbound
// exchange bytes, and flags any split whose heaviest shard carries more
// than 2× the mean nnz — the imbalance measurement the ROADMAP's sharding
// item asks for. (Max-vs-mean rather than max-vs-min: churned graphs can
// leave a shard nearly empty, and a zero minimum would flag every split.)
//
// Each K then runs the sharded solve and checks it bit-identical against
// both the inline K=1 solve and the dense reference EigenTrustDense — the
// MATCH line `make shard-smoke` gates CI on. A divergence is an error, not
// just a printout.
func shardStats(peers, cliqueSize, steps, rejoinEvery int, boost float64) error {
	if peers < 4 || cliqueSize < 2 || cliqueSize >= peers-2 {
		return fmt.Errorf("need peers >= 4 and 2 <= clique < peers-2, got peers=%d clique=%d",
			peers, cliqueSize)
	}
	if steps <= 0 {
		return fmt.Errorf("need steps > 0, got %d", steps)
	}
	g, err := reputation.NewLogGraph(peers)
	if err != nil {
		return err
	}
	honest := peers - cliqueSize
	if err := driveWorkload(g, honest, cliqueSize, steps, rejoinEvery, nil, boost); err != nil {
		return err
	}
	g.Compact()

	cfg := reputation.DefaultEigenTrust()
	ws, err := reputation.NewEigenTrustWorkspace(1)
	if err != nil {
		return err
	}
	serial, err := ws.Compute(g, cfg)
	if err != nil {
		return err
	}
	serialStats := ws.LastStats()
	want := append([]float64(nil), serial...)
	dense, err := reputation.EigenTrustDense(g, cfg)
	if err != nil {
		return err
	}
	if !equalVectors(want, dense) {
		return fmt.Errorf("inline K=1 solve diverged from EigenTrustDense")
	}

	fmt.Printf("shard balance after %d steps: %d peers (%d honest, %d-clique), boost=%g, rejoin every %d\n",
		steps, peers, honest, cliqueSize, boost, rejoinEvery)
	fmt.Printf("graph: nnz=%d  K=1 solve: %d iterations, converged=%v, bit-identical to EigenTrustDense\n",
		g.NNZ(), serialStats.Iterations, serialStats.Converged)

	diverged := false
	for _, k := range []int{2, 4, 8} {
		plan, err := reputation.NewShardPlan(g, k)
		if err != nil {
			return err
		}
		fmt.Printf("\nK=%d shards (destination ranges):\n", k)
		fmt.Printf("  %5s %12s %8s %8s %14s\n", "shard", "range", "rows", "nnz", "xchg B/round")
		maxNNZ := 0
		for s := 0; s < k; s++ {
			sl := plan.Slice(s)
			// Per round a shard ships its output slice to K−1 peers and the
			// combiner: rows × 8 bytes × K outbound.
			xchg := sl.Rows() * 8 * k
			fmt.Printf("  %5d %12s %8d %8d %14d\n",
				s, fmt.Sprintf("[%d,%d)", sl.Lo, sl.Hi), sl.Rows(), sl.NNZ(), xchg)
			if sl.NNZ() > maxNNZ {
				maxNNZ = sl.NNZ()
			}
		}
		mean := float64(plan.NNZ()) / float64(k)
		balance := "balanced"
		if mean > 0 && float64(maxNNZ) > 2*mean {
			balance = fmt.Sprintf("IMBALANCED >2x (max %d vs mean %.1f)", maxNNZ, mean)
		}
		fmt.Printf("  nnz balance: max/mean = %.2f — %s\n", float64(maxNNZ)/mean, balance)

		sw, err := reputation.NewEigenTrustWorkspace(k)
		if err != nil {
			return err
		}
		got, err := sw.Compute(g, cfg)
		if err != nil {
			return err
		}
		st := sw.LastStats()
		match := "MATCH"
		if !equalVectors(got, want) || !equalVectors(got, dense) || st.Iterations != serialStats.Iterations {
			match = "DIVERGED"
			diverged = true
		}
		fmt.Printf("  sharded solve: %d rounds, %d bytes exchanged — K=1 and dense reference check: %s\n",
			st.Iterations, st.BytesExchanged, match)
	}
	if diverged {
		return fmt.Errorf("sharded solve diverged from the K=1 or dense reference")
	}
	return nil
}

// equalVectors reports bitwise equality of two trust vectors.
func equalVectors(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
