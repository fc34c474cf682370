package incentive

import (
	"fmt"

	"collabnet/internal/core"
	"collabnet/internal/reputation"
)

// FlowTrustConfig parameterizes the max-flow trust incentive scheme.
type FlowTrustConfig struct {
	// Evaluator is the peer whose subjective max-flow trust vector drives
	// service differentiation — the Feldman scheme is subjective by design,
	// and the reproduction anchors it at one designated honest evaluator
	// (the first pre-trusted peer when configured).
	Evaluator int
	// RefreshEvery is the number of steps between trust recomputations. The
	// all-sinks max-flow solve is substantially dearer than an EigenTrust
	// refresh, so the default cadence is coarser.
	RefreshEvery int
	// Floor is the uniform allocation floor that keeps peers the evaluator
	// cannot reach from starving.
	Floor float64
}

// DefaultFlowTrustConfig returns the configuration used by the
// reproduction's robustness experiments.
func DefaultFlowTrustConfig() FlowTrustConfig {
	return FlowTrustConfig{Evaluator: 0, RefreshEvery: 25, Floor: 0.05}
}

// FlowTrust is the maximum-flow trust metric of Feldman et al. (Section
// II-C) as an incentive scheme: delivered transfers become local-trust
// edges exactly as in GlobalTrust, but a peer's standing is the max flow
// the evaluator can push to it through the trust graph — bounded by the
// min-cut, so a colluding clique cannot raise its standing above the trust
// the honest region actually extends to it, no matter how much trust the
// clique members assert in each other. This is the collusion-resistant
// baseline the adversarial scenario suite compares the other schemes
// against.
type FlowTrust struct {
	cfg   FlowTrustConfig
	n     int
	graph *reputation.LogGraph

	trust []float64 // latest max-flow trust vector, max-normalized to [0,1]
	score []float64 // squashed observable in [0,1)

	ws reputation.FlowWorkspace // reusable residual network across solves

	dirty        bool
	sinceRefresh int
}

// NewFlowTrust builds the scheme for n peers.
func NewFlowTrust(n int, cfg FlowTrustConfig) (*FlowTrust, error) {
	if n <= 0 {
		return nil, fmt.Errorf("incentive: FlowTrust needs n > 0, got %d", n)
	}
	if cfg.Evaluator < 0 || cfg.Evaluator >= n {
		return nil, fmt.Errorf("incentive: FlowTrust evaluator %d out of range [0,%d)", cfg.Evaluator, n)
	}
	if cfg.RefreshEvery <= 0 {
		return nil, fmt.Errorf("incentive: RefreshEvery must be > 0, got %d", cfg.RefreshEvery)
	}
	if cfg.Floor < 0 {
		return nil, fmt.Errorf("incentive: Floor must be >= 0, got %v", cfg.Floor)
	}
	graph, err := reputation.NewLogGraph(n)
	if err != nil {
		return nil, err
	}
	f := &FlowTrust{
		cfg:   cfg,
		n:     n,
		graph: graph,
		trust: make([]float64, n),
		score: make([]float64, n),
	}
	if err := f.recompute(); err != nil {
		return nil, err
	}
	return f, nil
}

// Trust returns peer's current max-flow trust as seen by the evaluator.
func (f *FlowTrust) Trust(peer int) float64 {
	if peer < 0 || peer >= f.n {
		return 0
	}
	return f.trust[peer]
}

// Graph exposes the local-trust graph (for metrics and tests).
func (f *FlowTrust) Graph() reputation.Graph { return f.graph }

// recompute solves the all-sinks max flow from the evaluator and refreshes
// the squashed observables.
func (f *FlowTrust) recompute() error {
	if err := f.ws.MaxFlowTrustInto(f.graph, f.cfg.Evaluator, f.trust); err != nil {
		return err
	}
	f.trust[f.cfg.Evaluator] = 1 // the evaluator trusts itself fully
	for i, t := range f.trust {
		f.score[i] = t / (t + 1) * 2 // monotone squash, 1 at full trust
	}
	f.dirty = false
	f.sinceRefresh = 0
	return nil
}

// Name implements Scheme.
func (f *FlowTrust) Name() string { return "maxflow" }

// Allocate implements Scheme: weight_d = Floor + flowtrust_d, normalized in
// the caller's shares buffer.
func (f *FlowTrust) Allocate(_ int, downloaders []int, shares []float64) {
	for i, d := range downloaders {
		shares[i] = f.cfg.Floor + f.Trust(d)
	}
	core.NormalizeShares(shares)
}

// CanEdit implements Scheme: flow trust carries no edit gate.
func (f *FlowTrust) CanEdit(int) bool { return true }

// CanVote implements Scheme.
func (f *FlowTrust) CanVote(int) bool { return true }

// VoteWeight implements Scheme: ballots weighted by flow trust plus the
// floor.
func (f *FlowTrust) VoteWeight(voter int) float64 {
	return f.cfg.Floor + f.Trust(voter)
}

// RequiredMajority implements Scheme.
func (f *FlowTrust) RequiredMajority(int) float64 { return 0.5 }

// RecordSharing implements Scheme (no-op: only transfers move trust).
func (f *FlowTrust) RecordSharing(int, float64, float64) {}

// RecordTransfer implements Scheme: delivered bandwidth becomes a
// local-trust edge from the downloader toward the source.
func (f *FlowTrust) RecordTransfer(downloader, source int, amount float64) {
	if amount <= 0 {
		return
	}
	if err := f.graph.AddTrust(downloader, source, amount); err != nil {
		return
	}
	if downloader != source {
		f.dirty = true
	}
}

// RecordVoteOutcome implements Scheme (no-op).
func (f *FlowTrust) RecordVoteOutcome(int, bool) {}

// RecordEditOutcome implements Scheme (no-op).
func (f *FlowTrust) RecordEditOutcome(int, bool) {}

// EndStep implements Scheme: re-solve on the refresh cadence when the
// graph changed.
func (f *FlowTrust) EndStep() {
	f.sinceRefresh++
	if f.dirty && f.sinceRefresh >= f.cfg.RefreshEvery {
		if err := f.recompute(); err != nil {
			panic(err)
		}
	}
}

// Reset implements Scheme.
func (f *FlowTrust) Reset() {
	f.graph.Clear()
	if err := f.recompute(); err != nil {
		panic(err)
	}
}

// ResetPeer implements Scheme: the peer's trust edges are removed in both
// directions and the flow vector recomputed immediately, so a fresh
// identity starts unreachable from the evaluator.
func (f *FlowTrust) ResetPeer(peer int) {
	if peer < 0 || peer >= f.n {
		return
	}
	if err := f.graph.ClearPeer(peer); err != nil {
		return
	}
	if err := f.recompute(); err != nil {
		panic(err)
	}
}

// InjectTrust books a fabricated local-trust statement from one peer toward
// another — the collusion scenarios' fake-report surface. Unlike
// RecordTransfer the edge is not backed by delivered bandwidth; max-flow
// trust is expected to bound its effect by the min-cut from the evaluator.
func (f *FlowTrust) InjectTrust(from, to int, w float64) {
	if w <= 0 {
		return
	}
	if err := f.graph.AddTrust(from, to, w); err != nil {
		return
	}
	if from != to {
		f.dirty = true
	}
}

// Refresh forces an immediate recompute regardless of the cadence.
func (f *FlowTrust) Refresh() {
	if err := f.recompute(); err != nil {
		panic(err)
	}
}

// SharingScore implements Scheme.
func (f *FlowTrust) SharingScore(peer int) float64 {
	if peer < 0 || peer >= f.n {
		return 0
	}
	return f.score[peer]
}

// EditingScore implements Scheme: flow trust is resource-blind, like
// GlobalTrust.
func (f *FlowTrust) EditingScore(peer int) float64 { return f.SharingScore(peer) }

// SaveState implements Snapshotter.
func (f *FlowTrust) SaveState(dst *State) {
	dst.Kind = KindMaxFlow
	fs := &dst.GraphTrust
	fs.Edges = f.graph.AppendEdges(fs.Edges[:0])
	fs.Trust = append(fs.Trust[:0], f.trust...)
	fs.Score = append(fs.Score[:0], f.score...)
	fs.Dirty = f.dirty
	fs.SinceRefresh = f.sinceRefresh
}

// LoadState implements Snapshotter.
func (f *FlowTrust) LoadState(src *State) error {
	if err := checkKind(src, KindMaxFlow); err != nil {
		return err
	}
	fs := &src.GraphTrust
	if len(fs.Trust) != f.n || len(fs.Score) != f.n {
		return fmt.Errorf("incentive: flow-trust state sized for %d peers, scheme has %d",
			len(fs.Trust), f.n)
	}
	if err := f.graph.LoadEdges(fs.Edges); err != nil {
		return err
	}
	copy(f.trust, fs.Trust)
	copy(f.score, fs.Score)
	f.dirty = fs.Dirty
	f.sinceRefresh = fs.SinceRefresh
	return nil
}

var (
	_ Scheme      = (*FlowTrust)(nil)
	_ Snapshotter = (*FlowTrust)(nil)
)
