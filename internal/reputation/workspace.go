package reputation

import (
	"fmt"
	"math"
)

// EigenTrustWorkspace is the EigenTrust solver: it holds the ShardPlan (the
// normalized trust matrix cut into K destination-range slices), the
// iteration vectors, and the warm-start state, so that steady-state
// recomputation reuses every buffer:
//
//   - The plan is value-refreshed in place while the graph's sparsity
//     pattern is stable (the common case when trust merely accumulates on
//     existing edges) and re-emitted into the same buffers otherwise.
//   - The pre-trust, iteration, and exchange vectors are reused across
//     calls.
//
// K=1 runs the gather inline on the caller's goroutine, with no goroutines
// or channels; once the buffers have grown to the graph's size its solves
// allocate nothing. K>1 runs the message-passing protocol described on
// runShards: one goroutine per shard, each holding only its slice, with the
// caller's goroutine as the combiner. Every float64 that crosses a channel
// is payload a real transport would carry, counted in
// SolveStats.BytesExchanged.
//
// Determinism guarantee: the returned vector is a pure function of the
// graph, the configuration, and the warm-start state — identical across
// runs, across shard counts, and (cold) identical to the dense reference
// EigenTrustDense. Every output component is one dot product over a slice
// row whose source order is fixed by the layout, the dangling, convergence,
// and renormalization sums run serially in index order at one site, and
// the teleportation arithmetic is the same expression everywhere.
//
// The returned slice is owned by the workspace and valid until the next
// Compute call; callers that need to retain it must copy. A workspace is
// not safe for concurrent use.
type EigenTrustWorkspace struct {
	plan    ShardPlan
	p       []float64 // pre-trust distribution
	t, next []float64 // combiner iteration vectors (swapped each round)

	// Warm-start state: the previous solve's eigenvector. The next solve
	// starts from it (instead of the pre-trust vector) when prevN matches
	// the graph size and the config does not force ColdStart — same
	// Epsilon, far fewer iterations when the graph changed little.
	prev  []float64
	prevN int

	stats SolveStats // what the most recent solve did

	// Per-shard persistent buffers for K>1, indexed by shard.
	tBuf     [][]float64 // shard's assembled full t-vector
	outBuf   [][]float64 // shard's gather output (its own range)
	pBuf     [][]float64 // shard's pre-trust range copy
	startBuf [][]float64 // combiner→shard start-vector copies
	// linkBuf[from][to][parity] is the double-buffered payload for the
	// from→to link; to == K addresses the combiner.
	linkBuf [][][2][]float64
}

// SolveStats describes what one Compute call did: how hard the iteration
// worked, which refresh path fed it, and how the work was split across
// shards.
type SolveStats struct {
	Iterations int  // power-iteration rounds executed (≥ 1)
	Converged  bool // the L1 delta dropped below Epsilon within MaxIter
	Warm       bool // started from the previous eigenvector, not pre-trust
	Refresh    RefreshStats

	// Shards is the shard count K the solve ran with.
	Shards int
	// BytesExchanged counts every float64 of t-vector payload that crossed
	// a channel, at 8 bytes each: the start-vector broadcast (K·8n) plus
	// each round's all-to-all slice exchange (K·8n per round, counting the
	// combiner as a destination). The inline K=1 solve exchanges nothing.
	BytesExchanged int64
	// ShardRows/ShardNNZ give the per-shard split of destinations and of
	// matrix entries — the per-round work each shard performs. They are
	// never mutated after a solve returns; a later solve with the same
	// split shares them.
	ShardRows []int
	ShardNNZ  []int
}

// NewEigenTrustWorkspace returns an empty solver that runs with the given
// shard count. shards must be at least 1; more shards than peers is allowed
// (surplus shards own empty ranges and only relay). Buffers are sized on
// first use and grown only when the graph outgrows them.
func NewEigenTrustWorkspace(shards int) (*EigenTrustWorkspace, error) {
	if shards < 1 {
		return nil, fmt.Errorf("reputation: EigenTrust solver needs at least 1 shard, got %d", shards)
	}
	return &EigenTrustWorkspace{plan: ShardPlan{k: shards, slices: make([]ShardSlice, shards)}}, nil
}

// Plan exposes the workspace's current shard plan (for inspection and
// tests); empty before the first Compute.
func (ws *EigenTrustWorkspace) Plan() *ShardPlan { return &ws.plan }

// LastStats returns what the most recent Compute call did. Zero-valued
// before the first solve.
func (ws *EigenTrustWorkspace) LastStats() SolveStats { return ws.stats }

// SeedWarm installs vec as the workspace's previous eigenvector, exactly as
// if the workspace had just solved and produced it. Snapshot restore uses
// this so a restored engine's next warm-started solve runs bit-identically
// to the original's — both start from the same bits.
func (ws *EigenTrustWorkspace) SeedWarm(vec []float64) {
	ws.prev = growFloats(ws.prev, len(vec))
	copy(ws.prev, vec)
	ws.prevN = len(vec)
}

// ResetWarm discards the warm-start state; the next solve runs cold.
func (ws *EigenTrustWorkspace) ResetWarm() { ws.prevN = 0 }

// Compute runs the power iteration on g and returns the global trust
// vector. The result must be a probability distribution: a vector with a
// non-finite component or a sum off 1 by more than 1e-9 (finite weights can
// still overflow a row sum) is reported as an error, and the warm-start
// state is left as it was.
func (ws *EigenTrustWorkspace) Compute(g Graph, cfg EigenTrustConfig) ([]float64, error) {
	n := g.Len()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	ws.plan.Refresh(g)

	ws.p = growFloats(ws.p, n)
	ws.t = growFloats(ws.t, n)
	ws.next = growFloats(ws.next, n)
	cfg.fillPreTrust(ws.p)
	warm := !cfg.ColdStart && ws.prevN == n
	if warm {
		copy(ws.t, ws.prev)
	} else {
		copy(ws.t, ws.p)
	}

	var iters int
	var converged bool
	var bytes int64
	if ws.plan.k == 1 {
		iters, converged = ws.runInline(cfg)
	} else {
		iters, converged, bytes = ws.runShards(cfg)
	}
	rows, nnz := ws.shardSplit()
	ws.stats = SolveStats{
		Iterations:     iters,
		Converged:      converged,
		Warm:           warm,
		Refresh:        ws.plan.LastRefresh(),
		Shards:         ws.plan.k,
		BytesExchanged: bytes,
		ShardRows:      rows,
		ShardNNZ:       nnz,
	}

	// Final renormalization sheds the few-ulp drift that row-normalization
	// rounding accumulates over the iterations (again in fixed index
	// order), then the post-condition checks the result is a distribution.
	sum := 0.0
	for _, x := range ws.t {
		sum += x
	}
	if sum > 0 {
		for j := range ws.t {
			ws.t[j] /= sum
		}
	}
	if err := CheckDistribution(ws.t); err != nil {
		return nil, err
	}
	ws.prev = growFloats(ws.prev, n)
	copy(ws.prev, ws.t)
	ws.prevN = n
	return ws.t, nil
}

// CheckDistribution is the post-condition of every EigenTrust solve, and
// the check a trust vector restored from outside the program must pass
// before it is used: every component finite and non-negative, and the sum
// within 1e-9 of 1.
func CheckDistribution(v []float64) error {
	sum := 0.0
	for i, x := range v {
		// The negated comparison also catches NaN.
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("reputation: trust vector is not a finite distribution (component %d is %v)", i, x)
		}
		sum += x
	}
	if !(math.Abs(sum-1) <= 1e-9) {
		return fmt.Errorf("reputation: trust vector is not a finite distribution (sums to %v)", sum)
	}
	return nil
}

// runInline is the K=1 solve: the gather over the single slice on the
// caller's goroutine.
func (ws *EigenTrustWorkspace) runInline(cfg EigenTrustConfig) (iters int, converged bool) {
	sl := &ws.plan.slices[0]
	for iter := 0; iter < cfg.MaxIter; iter++ {
		sl.gather(ws.next, ws.t, ws.p, cfg.Damping, sl.danglingMass(ws.t))
		delta := l1Delta(ws.next, ws.t)
		ws.t, ws.next = ws.next, ws.t
		iters++
		if delta < cfg.Epsilon {
			return iters, true
		}
	}
	return iters, false
}

// l1Delta is the convergence sum, run serially in index order so the
// stopping decision — and with it the iteration count — is identical for
// every shard count.
func l1Delta(a, b []float64) float64 {
	delta := 0.0
	for j := range a {
		delta += math.Abs(a[j] - b[j])
	}
	return delta
}

// shardSplit returns the per-shard rows/nnz for the stats, reusing the last
// published slices when the split is unchanged so steady-state solves
// allocate nothing and published stats stay immutable.
func (ws *EigenTrustWorkspace) shardSplit() (rows, nnz []int) {
	rows, nnz = ws.stats.ShardRows, ws.stats.ShardNNZ
	same := len(rows) == ws.plan.k
	for s := 0; same && s < ws.plan.k; s++ {
		sl := &ws.plan.slices[s]
		same = rows[s] == sl.Rows() && nnz[s] == sl.NNZ()
	}
	if same {
		return rows, nnz
	}
	rows, nnz = make([]int, ws.plan.k), make([]int, ws.plan.k)
	for s := range rows {
		rows[s] = ws.plan.slices[s].Rows()
		nnz[s] = ws.plan.slices[s].NNZ()
	}
	return rows, nnz
}

// runShards is the K>1 solve. Shards communicate only by message passing —
// goroutines and channels stand in for network processes, and shards never
// read each other's memory, only the immutable shard topology and the
// buffers handed to them over channels. Round protocol, per solve:
//
//  1. The combiner (the caller's goroutine) has refreshed the plan and
//     picked the start vector; it broadcasts that vector to every shard.
//  2. Each round, every shard computes the dangling mass from its own
//     assembled copy of the full t-vector, gathers its output range, and
//     sends a copy of that slice to each of the other K−1 shards and to
//     the combiner (an all-to-all exchange); it then assembles the next
//     full t-vector from its own slice plus the K−1 received ones.
//  3. The combiner assembles the full next vector from the K slices,
//     computes the L1 delta serially in full index order — the identical
//     loop the inline solve runs, so the stopping decision and the round
//     count are the same for every K — and broadcasts one continue/stop
//     decision. (Summing per-shard partial deltas would regroup the float
//     additions and could flip the stopping decision.)
//
// Per-link send buffers are double-buffered by round parity: a sender may
// be a full round ahead of a slow receiver, never two, because the
// combiner's round-r decision is only sent after every round-r slice
// arrived, which transitively means every round-(r−1) buffer has been
// consumed. Channels are created per solve, so no message can survive into
// a later solve.
func (ws *EigenTrustWorkspace) runShards(cfg EigenTrustConfig) (rounds int, converged bool, bytes int64) {
	k, n := ws.plan.k, ws.plan.n
	ws.ensureShardBuffers(n)

	// slCh[from][to] carries from's output slice to shard to; cmbCh[s]
	// carries shard s's slice to the combiner; decCh fans the combiner's
	// continue/stop decision out; startCh delivers the start vector.
	slCh := make([][]chan []float64, k)
	for a := 0; a < k; a++ {
		slCh[a] = make([]chan []float64, k)
		for b := 0; b < k; b++ {
			if a != b {
				slCh[a][b] = make(chan []float64, 1)
			}
		}
	}
	cmbCh := make([]chan []float64, k)
	decCh := make([]chan bool, k)
	startCh := make([]chan []float64, k)
	sent := make(chan int64, k)
	for s := 0; s < k; s++ {
		cmbCh[s] = make(chan []float64, 1)
		decCh[s] = make(chan bool, 1)
		startCh[s] = make(chan []float64, 1)
	}
	for s := 0; s < k; s++ {
		go ws.shardMain(s, cfg.Damping, slCh, cmbCh[s], decCh[s], startCh[s], sent)
	}

	for s := 0; s < k; s++ {
		copy(ws.startBuf[s], ws.t)
		startCh[s] <- ws.startBuf[s]
		bytes += 8 * int64(n)
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for s := 0; s < k; s++ {
			sl := <-cmbCh[s]
			lo := ws.plan.slices[s].Lo
			copy(ws.next[lo:lo+len(sl)], sl)
		}
		delta := l1Delta(ws.next, ws.t)
		ws.t, ws.next = ws.next, ws.t
		rounds++
		converged = delta < cfg.Epsilon
		cont := !converged && iter+1 < cfg.MaxIter
		for s := 0; s < k; s++ {
			decCh[s] <- cont
		}
		if !cont {
			break
		}
	}
	for s := 0; s < k; s++ {
		bytes += <-sent
	}
	return rounds, converged, bytes
}

// shardMain is one shard's solve loop. It touches only its own slice, its
// own buffers, and the channels; everything else it learns arrives as a
// message. Receives iterate over peers in fixed index order — no select —
// so the protocol itself is deterministic, not just the arithmetic. At the
// end it reports the payload bytes it sent.
func (ws *EigenTrustWorkspace) shardMain(s int, damping float64, slCh [][]chan []float64, cmb chan []float64, dec chan bool, start chan []float64, sent chan int64) {
	k := ws.plan.k
	sl := &ws.plan.slices[s]
	rows := sl.Rows()
	t, out, p := ws.tBuf[s], ws.outBuf[s], ws.pBuf[s]
	bytes := int64(0)

	copy(t, <-start)
	parity := 0
	for {
		sl.gather(out, t, p, damping, sl.danglingMass(t))
		for to := 0; to <= k; to++ {
			if to == s {
				continue
			}
			buf := ws.linkBuf[s][to][parity]
			copy(buf, out)
			if to == k {
				cmb <- buf
			} else {
				slCh[s][to] <- buf
			}
			bytes += 8 * int64(rows)
		}

		// Assemble next round's full t: own slice locally, the rest from
		// the wire.
		copy(t[sl.Lo:sl.Hi], out)
		for from := 0; from < k; from++ {
			if from == s {
				continue
			}
			in := <-slCh[from][s]
			lo := ws.plan.slices[from].Lo
			copy(t[lo:lo+len(in)], in)
		}
		if !<-dec {
			break
		}
		parity ^= 1
	}
	sent <- bytes
}

// ensureShardBuffers (re)sizes every per-shard buffer for an n-peer solve,
// reusing backing arrays, and fills each shard's pre-trust range copy.
func (ws *EigenTrustWorkspace) ensureShardBuffers(n int) {
	k := ws.plan.k
	if len(ws.tBuf) != k {
		ws.tBuf = make([][]float64, k)
		ws.outBuf = make([][]float64, k)
		ws.pBuf = make([][]float64, k)
		ws.startBuf = make([][]float64, k)
		ws.linkBuf = make([][][2][]float64, k)
		for s := 0; s < k; s++ {
			ws.linkBuf[s] = make([][2][]float64, k+1)
		}
	}
	for s := 0; s < k; s++ {
		sl := &ws.plan.slices[s]
		rows := sl.Rows()
		ws.tBuf[s] = growFloats(ws.tBuf[s], n)
		ws.outBuf[s] = growFloats(ws.outBuf[s], rows)
		ws.pBuf[s] = growFloats(ws.pBuf[s], rows)
		copy(ws.pBuf[s], ws.p[sl.Lo:sl.Hi])
		ws.startBuf[s] = growFloats(ws.startBuf[s], n)
		for to := 0; to <= k; to++ {
			if to == s {
				continue
			}
			for par := 0; par < 2; par++ {
				ws.linkBuf[s][to][par] = growFloats(ws.linkBuf[s][to][par], rows)
			}
		}
	}
}
