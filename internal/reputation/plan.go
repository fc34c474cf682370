package reputation

import (
	"fmt"
	"math"
)

// ShardSlice is one destination-range slice of the transposed, normalized
// local-trust matrix: everything shard s needs to compute components
// [Lo,Hi) of a power iteration from a full t-vector, and nothing else. For
// each owned destination j, TColIdx holds the sources trusting j in
// strictly ascending order and TVal the normalized weights c_ij, so a dot
// product over a slice row accumulates in the same order for every shard
// count — which is what makes every K bit-identical.
type ShardSlice struct {
	// Lo, Hi bound the owned destination range [Lo, Hi).
	Lo, Hi int
	// N is the total peer count (matrix dimension); source indices in
	// TColIdx are global, in [0, N).
	N int
	// TRowPtr is local: entries of owned destination j live at
	// [TRowPtr[j-Lo], TRowPtr[j-Lo+1]) in TColIdx/TVal.
	TRowPtr []int
	TColIdx []int32
	TVal    []float64
	// Dangling is the global dangling-row list (peers with no outgoing
	// trust, ascending). Every shard carries the full list because the
	// dangling mass is a sum over the full t-vector, which each shard
	// assembles from the exchanged slices anyway.
	Dangling []int32
}

// Rows returns the number of destinations the slice owns.
func (s *ShardSlice) Rows() int { return s.Hi - s.Lo }

// NNZ returns the number of stored normalized trust entries.
func (s *ShardSlice) NNZ() int { return len(s.TVal) }

// danglingMass sums t over the dangling rows in ascending order — the walk
// mass the iteration redistributes to the pre-trust distribution.
func (s *ShardSlice) danglingMass(t []float64) float64 {
	dm := 0.0
	for _, i := range s.Dangling {
		dm += t[i]
	}
	return dm
}

// gather computes dst[0:Rows()] = components [Lo,Hi) of one power
// iteration from the full previous iterate src: one dot product over the
// slice row plus the analytic dangling and teleportation terms. p is the
// pre-trust distribution restricted to the owned range (p[r] = global
// p[Lo+r]), dm the dangling mass of src. This is the solver's only gather
// loop; every shard count runs it.
func (s *ShardSlice) gather(dst, src, p []float64, damping, dm float64) {
	a := damping
	om := 1 - a
	tp, tc, tv := s.TRowPtr, s.TColIdx, s.TVal
	for r := 0; r < s.Hi-s.Lo; r++ {
		sum := 0.0
		for e := tp[r]; e < tp[r+1]; e++ {
			sum += src[tc[e]] * tv[e]
		}
		dst[r] = om*(sum+dm*p[r]) + a*p[r]
	}
}

// ShardRange returns the destination range [lo, hi) that shard s of k owns
// over an n-peer graph: the contiguous equal split.
func ShardRange(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// ShardPlan is the normalized local-trust matrix C in the one layout the
// EigenTrust solver runs on: destination-major (the transpose of C, so the
// power iteration next = Cᵀ·t is a gather) and cut into K contiguous
// destination-range slices. The slices are views of one global transposed
// layout, so K=1 is simply the whole matrix.
//
// Construction never sorts. The emission kernel scatters a raw
// source-major adjacency (columns ascending) into the transpose with
// sources ascending, so every destination's sources come out ascending,
// and divides each entry by its row sum accumulated in ascending column
// order. The raw adjacency is a compacted LogGraph's own arrays, or, for
// any other Graph, a copy the plan builds with a two-scatter over OutEdges
// (source→transpose→forward, each scatter order-preserving), which sorts
// the columns of any map iteration order in O(n + nnz).
//
// ePos[e] is the transpose slot of forward entry e, so a value-only
// refresh renormalizes a row in place without re-scattering. Against a
// LogGraph the refresh is incremental: only the rows the log's tail dirtied
// since this plan's last refresh are renormalized, with a full value pass
// when another consumer drained a dirty span first and a re-emission when
// the sparsity pattern changed. Against a TrustGraph the plan probes each
// row's map for its stored columns and renormalizes in place while the
// pattern holds. All paths leave the plan bit-identical to a fresh
// emission, and all buffers are reused once grown.
type ShardPlan struct {
	k, n   int
	slices []ShardSlice

	// Global transposed layout; slice s views [tPtr[Lo], tPtr[Hi]).
	tPtr     []int
	tCol     []int32
	tVal     []float64
	ePos     []int   // forward entry e → transpose slot
	dangling []int32 // rows with no outgoing trust, ascending
	cur      []int   // scatter-cursor scratch

	// Raw source-major adjacency copied from a non-log graph (unused while
	// following a LogGraph, whose own arrays feed the kernels).
	rowPtr []int
	colIdx []int32
	val    []float64

	follow      logFollower
	lastRefresh RefreshStats
}

// NewShardPlan emits the k destination-range slices of g's normalized
// local-trust matrix. k must be at least 1; k larger than the peer count is
// allowed (the surplus shards own empty ranges).
func NewShardPlan(g Graph, k int) (*ShardPlan, error) {
	if k < 1 {
		return nil, fmt.Errorf("reputation: shard plan needs at least 1 shard, got %d", k)
	}
	p := &ShardPlan{k: k, slices: make([]ShardSlice, k)}
	p.Refresh(g)
	return p, nil
}

// Shards returns the number of slices k.
func (p *ShardPlan) Shards() int { return p.k }

// Len returns the number of peers the slices were emitted for.
func (p *ShardPlan) Len() int { return p.n }

// NNZ returns the total number of stored entries across all slices.
func (p *ShardPlan) NNZ() int { return len(p.tVal) }

// Slices returns the plan's slices. The returned slice and its contents are
// owned by the plan and remain valid until the next Refresh.
func (p *ShardPlan) Slices() []ShardSlice { return p.slices }

// Slice returns slice s.
func (p *ShardPlan) Slice(s int) *ShardSlice { return &p.slices[s] }

// Dangling returns a copy of the dangling-row list (peers with no outgoing
// trust), ascending.
func (p *ShardPlan) Dangling() []int {
	out := make([]int, len(p.dangling))
	for i, r := range p.dangling {
		out[i] = int(r)
	}
	return out
}

// LastRefresh returns what the most recent emission/Refresh call did.
func (p *ShardPlan) LastRefresh() RefreshStats { return p.lastRefresh }

// Refresh updates the slices from g, reporting true when the sparsity
// pattern was stable and only values were renormalized, false when the
// slices were re-emitted. Either way the plan matches g on return.
func (p *ShardPlan) Refresh(g Graph) bool {
	switch t := g.(type) {
	case *LogGraph:
		t.Compact()
		switch p.follow.path(t, p.n) {
		case refreshDirtyOnly:
			// Rows outside the pending dirty set already hold the
			// normalized form of their current weights. Normalization is
			// row-local, so this equals the full pass below bit for bit.
			for _, r := range t.dirtyRows {
				p.renormalizeRow(t.rowPtr, t.val, int(r))
			}
			p.lastRefresh = RefreshStats{PatternStable: true, DirtyOnly: true, RowsTouched: len(t.dirtyRows)}
			p.follow.consumed(t)
			return true
		case refreshFullCopy:
			for i := 0; i < p.n; i++ {
				p.renormalizeRow(t.rowPtr, t.val, i)
			}
			p.lastRefresh = RefreshStats{PatternStable: true, RowsTouched: p.n}
			p.follow.consumed(t)
			return true
		default:
			p.emit(t.n, t.rowPtr, t.colIdx, t.val)
			p.follow.rebuilt(t)
			return false
		}
	case *TrustGraph:
		if p.probeMap(t) {
			p.lastRefresh = RefreshStats{PatternStable: true, RowsTouched: p.n}
			return true
		}
	}
	p.copyAdjacency(g)
	p.emit(p.n, p.rowPtr, p.colIdx, p.val)
	return false
}

// probeMap is the value refresh for the map-backed reference graph: while
// every row still holds exactly the stored columns, it loads each row's
// map once, reads the stored columns in ascending order into the raw copy,
// and renormalizes the row. It reports false (leaving a partial update the
// caller's rebuild overwrites) as soon as the pattern differs.
func (p *ShardPlan) probeMap(g *TrustGraph) bool {
	if g.n != p.n || p.follow.src != nil {
		return false
	}
	for i := 0; i < p.n; i++ {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		row := g.edges[i]
		if len(row) != hi-lo {
			return false
		}
		for e := lo; e < hi; e++ {
			w := row[int(p.colIdx[e])]
			if w <= 0 { // edge vanished (or was never there)
				return false
			}
			p.val[e] = w
		}
		p.renormalizeRow(p.rowPtr, p.val, i)
	}
	return true
}

// copyAdjacency builds the plan's raw source-major copy of g through
// OutEdges with the two-scatter: out- and in-degrees, an OutEdges scatter
// into the transpose (sources ascending), and a scatter back into the
// forward layout (columns ascending). The transposed buffers serve as
// scratch; emit overwrites them.
func (p *ShardPlan) copyAdjacency(g Graph) {
	p.follow = logFollower{}
	n := g.Len()
	if n > math.MaxInt32 {
		// int32 column indices bound the representation; graphs beyond
		// 2^31 peers are out of scope for this reproduction.
		panic("reputation: ShardPlan supports at most 2^31-1 peers")
	}
	p.n = n
	p.rowPtr = growInts(p.rowPtr, n+1)
	p.tPtr = growInts(p.tPtr, n+1)
	p.cur = growInts(p.cur, n)
	clear(p.rowPtr)
	clear(p.tPtr)

	deg := 0
	count := func(j int, w float64) {
		if w > 0 {
			deg++
			p.tPtr[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		deg = 0
		g.OutEdges(i, count)
		p.rowPtr[i+1] = deg
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
		p.tPtr[i+1] += p.tPtr[i]
	}
	nnz := p.rowPtr[n]
	p.colIdx = growInt32s(p.colIdx, nnz)
	p.val = growFloats(p.val, nnz)
	p.tCol = growInt32s(p.tCol, nnz)
	p.tVal = growFloats(p.tVal, nnz)

	src := int32(0)
	scatter := func(j int, w float64) {
		if w > 0 {
			s := p.cur[j]
			p.cur[j] = s + 1
			p.tCol[s] = src
			p.tVal[s] = w
		}
	}
	copy(p.cur, p.tPtr[:n])
	for i := 0; i < n; i++ {
		src = int32(i)
		g.OutEdges(i, scatter)
	}
	copy(p.cur, p.rowPtr[:n])
	for j := 0; j < n; j++ {
		for s := p.tPtr[j]; s < p.tPtr[j+1]; s++ {
			i := p.tCol[s]
			e := p.cur[i]
			p.cur[i] = e + 1
			p.colIdx[e] = int32(j)
			p.val[e] = p.tVal[s]
		}
	}
}

// emit is the emission kernel: it scatters the raw source-major adjacency
// (rowPtr/colIdx/val over n rows, columns ascending, positive weights)
// into the global transposed layout with the normalization fused in, then
// cuts the K slice views. Sources are scattered ascending, so every
// destination's sources come out ascending.
func (p *ShardPlan) emit(n int, rowPtr []int, colIdx []int32, val []float64) {
	p.n = n
	nnz := rowPtr[n]
	p.tPtr = growInts(p.tPtr, n+1)
	clear(p.tPtr)
	for _, j := range colIdx[:nnz] {
		p.tPtr[j+1]++
	}
	p.dangling = p.dangling[:0]
	for i := 0; i < n; i++ {
		p.tPtr[i+1] += p.tPtr[i]
		if rowPtr[i+1] == rowPtr[i] {
			p.dangling = append(p.dangling, int32(i))
		}
	}
	p.tCol = growInt32s(p.tCol, nnz)
	p.tVal = growFloats(p.tVal, nnz)
	p.ePos = growInts(p.ePos, nnz)
	p.cur = growInts(p.cur, n)
	copy(p.cur, p.tPtr[:n])
	for i := 0; i < n; i++ {
		for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
			j := colIdx[e]
			s := p.cur[j]
			p.cur[j] = s + 1
			p.tCol[s] = int32(i)
			p.ePos[e] = s
		}
		p.renormalizeRow(rowPtr, val, i)
	}

	for s := range p.slices {
		lo, hi := ShardRange(n, p.k, s)
		off := p.tPtr[lo]
		sl := &p.slices[s]
		sl.Lo, sl.Hi, sl.N = lo, hi, n
		sl.TRowPtr = growInts(sl.TRowPtr, hi-lo+1)
		for r := range sl.TRowPtr {
			sl.TRowPtr[r] = p.tPtr[lo+r] - off
		}
		sl.TColIdx = p.tCol[off:p.tPtr[hi]]
		sl.TVal = p.tVal[off:p.tPtr[hi]]
		sl.Dangling = p.dangling
	}
	p.lastRefresh = RefreshStats{RowsTouched: n}
}

// renormalizeRow is the row-renormalize kernel: it divides forward row i
// of the raw adjacency by its sum, accumulated in ascending column order,
// and writes the results into their transpose slots. Row-local, so
// renormalizing any subset of changed rows equals a full emission.
func (p *ShardPlan) renormalizeRow(rowPtr []int, val []float64, i int) {
	lo, hi := rowPtr[i], rowPtr[i+1]
	sum := 0.0
	for e := lo; e < hi; e++ {
		sum += val[e]
	}
	for e := lo; e < hi; e++ {
		p.tVal[p.ePos[e]] = val[e] / sum
	}
}

// logFollower tracks a plan's refresh position against a LogGraph: which
// log it last built from, at which sparsity-pattern generation, and at
// which dirty-row consumption generation.
type logFollower struct {
	src      *LogGraph
	patGen   uint64
	dirtyGen uint64
}

// refreshPath classifies what a refresh against a compacted LogGraph must do
// for a plan currently sized for n rows.
type refreshPath int

const (
	// refreshRebuild: the sparsity pattern changed, the size changed, or the
	// plan was built from a different (or no) log — full re-emission.
	refreshRebuild refreshPath = iota
	// refreshFullCopy: pattern stable, but another consumer drained a dirty
	// span this one never saw — every row must be renormalized.
	refreshFullCopy
	// refreshDirtyOnly: pattern stable and this plan saw every earlier
	// delta — only the currently-dirty rows need work.
	refreshDirtyOnly
)

// path classifies the refresh g requires. g must already be compacted.
func (f *logFollower) path(g *LogGraph, n int) refreshPath {
	if f.src != g || f.patGen != g.patGen || n != g.n {
		return refreshRebuild
	}
	if f.dirtyGen != g.dirtyGen {
		return refreshFullCopy
	}
	return refreshDirtyOnly
}

// rebuilt records that the plan has just been re-emitted from g, which
// subsumes every pending delta.
func (f *logFollower) rebuilt(g *LogGraph) {
	f.src = g
	f.patGen = g.patGen
	f.consumed(g)
}

// consumed records that the plan folded in (or refreshed past) every
// pending dirty row of g.
func (f *logFollower) consumed(g *LogGraph) {
	g.consumeDirty()
	f.dirtyGen = g.dirtyGen
}

// RefreshStats describes what the most recent plan refresh did — the
// observability hook the solver threads up to /v1/stats.
type RefreshStats struct {
	PatternStable bool // value-only path: no structural rebuild was needed
	DirtyOnly     bool // only the dirty rows were renormalized
	RowsTouched   int  // rows renormalized (n on the full paths)
}

// growInts returns s resized to length n, reusing its backing array when
// the capacity suffices. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
