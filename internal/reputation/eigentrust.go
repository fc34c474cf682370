package reputation

import (
	"fmt"
	"math"
)

// EigenTrustConfig parameterizes the EigenTrust computation (Kamvar,
// Schlosser, Garcia-Molina, WWW '03), the algorithm Section II-C describes as
// "an elegant and efficient way of computing global trust values … similar to
// the PageRank algorithm".
type EigenTrustConfig struct {
	// PreTrusted is the set of a-priori trusted peers (the paper's founders).
	// Peers with no outgoing trust, and a fraction Damping of everyone's
	// walk, defer to this set. When empty, the uniform distribution over all
	// peers takes its place.
	PreTrusted []int
	// Damping is the probability mass teleported to the pre-trusted
	// distribution each iteration (EigenTrust's "a", PageRank's 1−d).
	Damping float64
	// Epsilon is the L1 convergence threshold.
	Epsilon float64
	// MaxIter bounds the number of power iterations.
	MaxIter int
	// ColdStart forces every solve to start from the pre-trust distribution
	// instead of the workspace's previous eigenvector. The cold path is the
	// bit-exact reference (EigenTrust, EigenTrustDense, and the dense
	// differential suite all compute it). Warm starts converge to the same
	// fixed point — the iteration map is an L1 contraction with factor
	// 1−Damping, so any two results stopped at Epsilon differ by at most
	// 2·Epsilon/Damping in L1 — but reach it in far fewer iterations when
	// the graph changed little since the last solve.
	ColdStart bool
}

// DefaultEigenTrust returns the configuration used by the reproduction:
// damping 0.15, epsilon 1e-10, at most 200 iterations.
func DefaultEigenTrust() EigenTrustConfig {
	return EigenTrustConfig{Damping: 0.15, Epsilon: 1e-10, MaxIter: 200}
}

// validate reports the first violated constraint for an n-peer graph.
func (cfg EigenTrustConfig) validate(n int) error {
	if cfg.Damping < 0 || cfg.Damping >= 1 {
		return fmt.Errorf("reputation: damping must be in [0,1), got %v", cfg.Damping)
	}
	if cfg.Epsilon <= 0 {
		return fmt.Errorf("reputation: epsilon must be > 0, got %v", cfg.Epsilon)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("reputation: MaxIter must be > 0, got %d", cfg.MaxIter)
	}
	for k, id := range cfg.PreTrusted {
		if id < 0 || id >= n {
			return fmt.Errorf("reputation: pre-trusted peer %d out of range [0,%d)", id, n)
		}
		// A duplicate would make the pre-trust vector sum to less than 1
		// (fillPreTrust overwrites, it does not add) and silently skew the
		// teleportation. Pre-trusted sets are small, so the quadratic scan
		// is cheaper than an allocating set.
		for _, prev := range cfg.PreTrusted[:k] {
			if prev == id {
				return fmt.Errorf("reputation: pre-trusted peer %d listed twice", id)
			}
		}
	}
	return nil
}

// fillPreTrust writes the pre-trust distribution p into the caller's buffer
// (uniform over the pre-trusted set, or over everyone when the set is
// empty). The configuration must already be validated.
func (cfg EigenTrustConfig) fillPreTrust(p []float64) {
	for i := range p {
		p[i] = 0
	}
	if len(cfg.PreTrusted) > 0 {
		share := 1 / float64(len(cfg.PreTrusted))
		for _, id := range cfg.PreTrusted {
			p[id] = share
		}
		return
	}
	u := 1 / float64(len(p))
	for i := range p {
		p[i] = u
	}
}

// EigenTrust computes the global trust vector t = (C^T)^∞ applied to the
// pre-trust distribution: the left principal eigenvector of the normalized
// local-trust matrix C, with teleportation for convergence and collusion
// resistance. The result is a probability distribution over peers (sums
// to 1). An error is reported for invalid configurations and for a result
// that is not a finite distribution.
//
// Each power iteration is an O(nnz) gather over a ShardPlan of C built once
// per call; callers that recompute trust repeatedly over an evolving graph
// should hold an EigenTrustWorkspace instead, which reuses the plan and all
// iteration buffers across calls.
func EigenTrust(g Graph, cfg EigenTrustConfig) ([]float64, error) {
	ws, err := NewEigenTrustWorkspace(1)
	if err != nil {
		return nil, err
	}
	return ws.Compute(g, cfg)
}

// EigenTrustDense computes the same global trust vector from an explicit
// dense n×n matrix. It exists as the O(n²)-per-iteration differential
// reference the test suite pins the sparse path against: every arithmetic
// operation on a nonzero entry happens in the same order as in the sparse
// gather (rows normalized by their ascending-column sum, components
// accumulated in ascending source order, dangling and convergence sums in
// index order), and zero entries only ever contribute exact +0 additions —
// so the results are bit-identical, not merely close.
func EigenTrustDense(g Graph, cfg EigenTrustConfig) ([]float64, error) {
	n := g.Len()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	p := make([]float64, n)
	cfg.fillPreTrust(p)

	// Dense normalized matrix; dangling rows stay all-zero and are listed
	// separately, exactly like the sparse solver's analytic handling.
	m := make([][]float64, n)
	var dangling []int
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		g.OutEdges(i, func(j int, w float64) {
			if w > 0 {
				row[j] = w
			}
		})
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += row[j]
		}
		if sum == 0 {
			dangling = append(dangling, i)
		} else {
			for j := 0; j < n; j++ {
				row[j] = row[j] / sum
			}
		}
		m[i] = row
	}

	a := cfg.Damping
	om := 1 - a
	t := append([]float64(nil), p...)
	next := make([]float64, n)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		dm := 0.0
		for _, i := range dangling {
			dm += t[i]
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += t[i] * m[i][j]
			}
			next[j] = om*(s+dm*p[j]) + a*p[j]
		}
		delta := 0.0
		for j := 0; j < n; j++ {
			delta += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		if delta < cfg.Epsilon {
			break
		}
	}
	sum := 0.0
	for _, x := range t {
		sum += x
	}
	if sum > 0 {
		for j := range t {
			t[j] /= sum
		}
	}
	return t, nil
}
