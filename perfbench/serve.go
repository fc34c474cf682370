package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
	"collabnet/internal/serve"
)

// serveWorkload is one collabserve traffic mix. The server runs in-process
// behind a loopback listener; the load comes from this process over at
// most GOMAXPROCS connections, the freshness probe's included.
type serveWorkload struct {
	name      string
	peers     int
	refresh   time.Duration
	rate      float64 // open-loop requests per second
	writeFrac float64 // share of open-loop requests that ingest
	batch     int     // events per ingest request
	// populate is the size of the generated history loaded over HTTP in
	// set-up; with rerate, ingest only re-rates edges of that history, so
	// the sparsity pattern never changes.
	populate int
	rerate   bool
	// satReads makes the closed-loop phase read-only instead of
	// ingest-only.
	satReads bool
	// satRate sizes the closed-loop phase: it sends a fixed number of
	// requests, satRate per second of its share of the run, so parent and
	// change do the same work (a time-boxed phase would grow the graph
	// further on a faster build). The rates are about what a 2-CPU box
	// sustains, so the phase lasts about its share of --seconds there.
	satRate float64
	// freshRounds sets up a new server for every round, so the graph a
	// round writes into does not carry the earlier rounds' closed-loop
	// growth.
	freshRounds bool
	setupReps   int // set-ups per run at least; setup_s is their median
}

func serveIngest() serveWorkload {
	return serveWorkload{name: "serve-ingest", peers: 10000, refresh: 100 * time.Millisecond,
		rate: 500, writeFrac: 0.9, batch: 32, satRate: 7000, freshRounds: true, setupReps: 41}
}

func serveRead() serveWorkload {
	return serveWorkload{name: "serve-read", peers: 10000, refresh: 100 * time.Millisecond,
		rate: 1000, writeFrac: 0.05, batch: 32, populate: 300000, rerate: true,
		satReads: true, satRate: 24000, setupReps: 5}
}

const (
	// populateRequest is how many history events one set-up request carries.
	populateRequest = 1024
	// latencyChunk is the request count over which one percentile is
	// taken: p75 of 40 is the highest percentile with ten samples beyond
	// it. The reported p50 and tail are medians over the run's chunks. On a
	// shared 2-CPU VM whose vCPUs wait for the host to run them, more than
	// a tenth of the open-loop requests can meet such a wait, and a p90
	// then jumps from the body of the distribution into those waits: over
	// five runs in such a spell the chunked p90 of reads spread by 1.4 of
	// its median (IQR/median), the chunked p75 by 0.16. The whole-run p99
	// is logged, not gated.
	latencyChunk = 40
	// roundLen is the length of one measured round (open-loop phase, then
	// closed-loop phase); a run has max(1, round(seconds/roundLen)).
	roundLen = 3 * time.Second
	// satWindow is the closed-loop throughput window; the reported rate is
	// the median over the windows of every round's closed-loop phase.
	satWindow = 250 * time.Millisecond
)

// solveRec is one solve reported through Config.SolveLog.
type solveRec struct {
	at   time.Time
	info incentive.SolveInfo
}

// solveLog collects the server's solve reports (it runs on the server's
// refresh goroutine).
type solveLog struct {
	mu   sync.Mutex
	recs []solveRec
}

func (l *solveLog) add(info incentive.SolveInfo) {
	l.mu.Lock()
	l.recs = append(l.recs, solveRec{at: time.Now(), info: info})
	l.mu.Unlock()
}

// between returns the solves that ended in [a, b].
func (l *solveLog) between(a, b time.Time) []solveRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []solveRec
	for _, r := range l.recs {
		if !r.at.Before(a) && !r.at.After(b) {
			out = append(out, r)
		}
	}
	return out
}

// instance is one booted server and its listener.
type instance struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	solves *solveLog
}

func (w serveWorkload) boot(tr *tracer) (*instance, error) {
	solves := &solveLog{}
	srv, err := serve.New(serve.Config{Peers: w.peers, Refresh: w.refresh, SolveLog: solves.add})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1), solves: solves}
	go func() { in.served <- in.hs.Serve(ln) }()
	srv.Start()
	return in, nil
}

// close shuts the listener down (admission ceases), waits for the serve
// goroutine, then stops the server's write and solve planes.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx) // a timeout leaves connections to the process exit
	<-in.served
	in.srv.Stop()
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Accepted      uint64 `json:"accepted"`
	Applied       uint64 `json:"applied"`
	QueuedBatches int    `json:"queued_batches"`
	SkippedSolves uint64 `json:"skipped_solves"`
}

// statsOf reads /v1/stats through the handler in-process (no connection).
func statsOf(srv *serve.Server) (serverStats, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serverStats
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

// setupState is what set-up leaves for the measured phases.
type setupState struct {
	in      *instance
	admin   *client       // the set-up connection, reused for verification
	history []serve.Event // accepted populate events, in send order
	known   map[int][]int // history targets per source (re-rate mode)
	probe   *probe
}

// setup boots a server, loads the populate history over one connection,
// creates the probe edges, then flushes and solves so the measured phases
// start from a published, solved state. n numbers the set-up within the
// run and picks its probe's schedule.
func (w serveWorkload) setup(seed uint64, tr *tracer, n int) (*setupState, error) {
	in, err := w.boot(tr)
	if err != nil {
		return nil, err
	}
	st := &setupState{in: in, admin: newClient(in.url, nil)}
	fail := func(err error) (*setupState, error) {
		st.close()
		return nil, err
	}
	if w.populate > 0 {
		st.history, st.known = history(int64(seed), w.peers, w.batch, w.populate, partition(w.peers-1, 0, 1))
		for i := 0; i < len(st.history); i += populateRequest {
			status, err := st.admin.ingest(st.history[i:min(i+populateRequest, len(st.history))])
			if err != nil {
				return fail(err)
			}
			if status != http.StatusAccepted {
				return fail(fmt.Errorf("populate request refused with %d", status))
			}
		}
	}
	// Each set-up's probe draws its own schedule, so the servers of one
	// run see the probes at independent phases of their refresh cycles.
	st.probe = newProbe(newClient(in.url, nil), in.srv.Store(), w.peers, int64(seed)^0x5eed+int64(n))
	if !st.probe.seedEdges() {
		return fail(errors.New("probe edge set-up refused"))
	}
	if err := st.admin.post("/v1/flush"); err != nil {
		return fail(err)
	}
	if err := st.admin.post("/v1/refresh"); err != nil {
		return fail(err)
	}
	return st, nil
}

func (st *setupState) close() {
	st.in.close()
	st.admin.close()
	if st.probe != nil {
		st.probe.cl.close()
	}
}

// openResult is one open-loop connection's tally.
type openResult struct {
	write, read, late          sample
	attempted, failed, refused int
	ingests                    int
	events                     []serve.Event // accepted, in send order
}

// openLoop sends this connection's share of a fixed-rate schedule: request
// j of connection c of conns is due at start + (j·conns + c)/rate. Each
// request is timed from its due time, so a stall also charges the requests
// it delays; how late each send left is recorded separately.
func (w serveWorkload) openLoop(cl *client, g *gen, c, conns int, start, end time.Time) *openResult {
	res := &openResult{}
	step := time.Duration(float64(time.Second) / w.rate)
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j*conns+c) * step)
		if !due.Before(end) {
			break
		}
		sleepUntil(due)
		res.late.add(time.Since(due))
		res.attempted++
		if g.rng.Float64() < w.writeFrac {
			res.ingests++
			ev := g.ingest()
			status, err := cl.ingest(ev)
			switch {
			case err == nil && status == http.StatusAccepted:
				res.write.add(time.Since(due))
				res.events = append(res.events, ev...)
			case err == nil && status == http.StatusTooManyRequests:
				res.refused++
				fallthrough
			default:
				res.write.fail()
				res.failed++
			}
		} else {
			path, endpoint := g.read()
			status, _, err := cl.do(http.MethodGet, path, nil, "client.read", endpoint, false)
			if err == nil && status == http.StatusOK {
				res.read.add(time.Since(due))
			} else {
				res.read.fail()
				res.failed++
			}
		}
	}
	return res
}

// sleepUntil blocks until t. The runtime's timers wake through the
// network poller at millisecond granularity, which would leave an open
// loop at 1000 req/s half a millisecond late on average, so the wait is a
// nanosleep system call instead.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}

// closedResult is one closed-loop connection's tally.
type closedResult struct {
	units                      int // accepted events, or successful reads
	attempted, failed, refused int
	events                     []serve.Event
	done                       []completion
}

// closedLoop issues n requests back to back.
func (w serveWorkload) closedLoop(cl *client, g *gen, n int) *closedResult {
	res := &closedResult{}
	for i := 0; i < n; i++ {
		res.attempted++
		if w.satReads {
			path, endpoint := g.read()
			status, _, err := cl.do(http.MethodGet, path, nil, "client.read", endpoint, false)
			if err == nil && status == http.StatusOK {
				res.units++
				res.done = append(res.done, completion{time.Now(), 1})
			} else {
				res.failed++
			}
		} else {
			ev := g.ingest()
			status, err := cl.ingest(ev)
			switch {
			case err == nil && status == http.StatusAccepted:
				res.units += len(ev)
				res.events = append(res.events, ev...)
				res.done = append(res.done, completion{time.Now(), len(ev)})
			case err == nil && status == http.StatusTooManyRequests:
				res.refused++
				res.failed++
			default:
				res.failed++
			}
		}
	}
	return res
}

// sampler polls the server's queue and store gauges while a traced run
// measures, keeping their maxima.
type sampler struct {
	queuedMax, lagMax, pendingMax int64
	stop, done                    chan struct{}
}

func startSampler(srv *serve.Server) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			if st, err := statsOf(srv); err == nil {
				s.queuedMax = max(s.queuedMax, int64(st.QueuedBatches))
				s.lagMax = max(s.lagMax, int64(st.Accepted)-int64(st.Applied))
			}
			s.pendingMax = max(s.pendingMax, srv.Store().Stats().Pending)
		}
	}()
	return s
}

// finish stops the sampler and waits for it; its maxima are then safe to read.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// run is one measured run: set-up, the measured rounds (see measure) and
// the correctness gate on every server measured. A workload with
// freshRounds sets up a server for each round; the others run every round
// on one server. Extra set-ups first make setup_s a median of at least
// setupReps.
func (w serveWorkload) run(p params) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	setup := func() (*setupState, error) {
		debug.FreeOSMemory() // earlier servers' memory leaves the resident set
		t0 := time.Now()
		st, err := w.setup(p.seed, p.tr, len(setups))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return st, nil
	}
	rounds := max(1, int(math.Round(p.seconds/roundLen.Seconds())))
	servers := 1
	if w.freshRounds {
		servers = rounds
	}
	for len(setups)+servers < w.setupReps {
		st, err := setup()
		if err != nil {
			return nil, err
		}
		st.close()
	}
	m := &measured{roundSec: p.seconds / float64(rounds)}
	for s := 0; s < servers; s++ {
		st, err := setup()
		if err != nil {
			return nil, err
		}
		logs, err := w.measure(p, st, rounds/servers, m)
		if err == nil {
			// Correctness gate: the served edges must equal a serial
			// replay of exactly the accepted events, and the served trust
			// vector must be a distribution.
			if gerr := verifyServer(st.admin, st.in.srv, w.peers, logs); gerr != nil {
				out.fail("%s: server %d: %v", w.name, s, gerr)
			}
		}
		st.close()
		if err != nil {
			return nil, err
		}
	}
	w.endToEnd(out, setups, m)
	if p.tr != nil {
		w.layers(out, p.tr, m)
	}
	return out, nil
}

// measured is what the measured rounds leave for the metrics, summed over
// the servers measured.
type measured struct {
	roundSec float64 // length of one round

	write, read, late                         sample    // open loop, from due time
	attempted, failed, refused, ingests, sent int       // sent: open-loop requests
	units                                     int       // closed-loop accepted events or reads
	satRates                                  []float64 // closed-loop rate per window
	fresh, edgeVisible, trustLag, accept      sample    // the probes
	rounds                                    int
	openDur                                   time.Duration
	rss                                       []float64 // largest resident set seen in each round

	// The streams' generators, made on the first server and kept, so a
	// run's traffic does not repeat from server to server.
	openGen, closedGen []*gen

	// Traced runs: per-layer figures over the measured rounds only.
	wall                              float64 // seconds measured
	solves                            []solveRec
	swaps, retireWaits, skippedSolves uint64
	queuedMax, lagMax, pendingMax     int64
	nnz                               int // largest graph at the end of a server's rounds
	rt                                runtimeUse
}

// measure runs n rounds on a set-up server, adding what they measure to m,
// and returns the server's accepted events per stream for the gate. Each
// round runs the open-loop phase with the freshness probe for two thirds
// of m.roundSec, then sends the closed-loop phase's share of requests;
// between rounds the server is flushed, so every round starts with its
// writer queues empty. Interleaving the phases spreads every metric over
// the whole run: a slow spell of a shared host then moves a few chunks or
// windows of each metric, which the medians discard, instead of all of
// one phase.
func (w serveWorkload) measure(p params, st *setupState, n int, m *measured) ([][]serve.Event, error) {
	srv, cg, pr := st.in.srv, st.in.srv.Store(), st.probe
	logs := [][]serve.Event{st.history, pr.events}
	pr.events, pr.attempted, pr.failed = nil, 0, 0
	pr.cl.tr = p.tr

	// In the open loop the probe holds one connection and the generator
	// the rest; the closed loop uses all of them. Each stream writes for
	// sources of its own, so the replay may take the streams in any order.
	nproc := runtime.GOMAXPROCS(0)
	conns := max(1, nproc-1)
	if m.openGen == nil {
		streams := conns + nproc
		for c := 0; c < streams; c++ {
			if c < conns {
				m.openGen = append(m.openGen, w.streamGen(p.seed, c, streams, st.known))
			} else {
				m.closedGen = append(m.closedGen, w.streamGen(p.seed+1, c, streams, st.known))
			}
		}
	}
	openCl, closedCl := make([]*client, conns), make([]*client, nproc)
	for c := range openCl {
		openCl[c] = newClient(st.in.url, p.tr)
	}
	for c := range closedCl {
		closedCl[c] = newClient(st.in.url, p.tr)
	}
	defer func() {
		for _, cl := range append(openCl, closedCl...) {
			cl.close()
		}
	}()
	openDur := time.Duration(m.roundSec * 2 / 3 * float64(time.Second))
	perClient := int(math.Ceil(m.roundSec / 3 * w.satRate / float64(nproc)))

	var smp *sampler
	if p.tr != nil {
		smp = startSampler(srv)
	}
	st0, err := statsOf(srv)
	if err != nil {
		return nil, err
	}
	cs0, rt0, start := cg.Stats(), readRuntime(), time.Now()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r > 0 {
			if err := st.admin.post("/v1/flush"); err != nil {
				return nil, err
			}
		}
		start := time.Now().Add(time.Millisecond)
		end := start.Add(openDur)
		opens := make([]*openResult, conns)
		wg.Add(conns + 1)
		for c := range opens {
			go func(c int) {
				defer wg.Done()
				opens[c] = w.openLoop(openCl[c], m.openGen[c], c, conns, start, end)
			}(c)
		}
		go func() {
			defer wg.Done()
			pr.run(start, end)
		}()
		wg.Wait()
		peak := rssMB()
		m.rounds++
		m.openDur += openDur
		for _, o := range opens {
			m.write.xs = append(m.write.xs, o.write.xs...)
			m.read.xs = append(m.read.xs, o.read.xs...)
			m.late.xs = append(m.late.xs, o.late.xs...)
			m.attempted += o.attempted
			m.failed += o.failed
			m.refused += o.refused
			m.ingests += o.ingests
			m.sent += o.attempted
			logs = append(logs, o.events)
		}

		closed := make([]*closedResult, nproc)
		satStart := time.Now()
		wg.Add(nproc)
		for c := range closed {
			go func(c int) {
				defer wg.Done()
				closed[c] = w.closedLoop(closedCl[c], m.closedGen[c], perClient)
			}(c)
		}
		wg.Wait()
		satStop := time.Now()
		m.rss = append(m.rss, max(peak, rssMB()))
		var done []completion
		for _, c := range closed {
			m.units += c.units
			done = append(done, c.done...)
			m.attempted += c.attempted
			m.failed += c.failed
			m.refused += c.refused
			if !w.satReads {
				m.ingests += c.attempted
			}
			logs = append(logs, c.events)
		}
		m.satRates = append(m.satRates, windowRates(done, satStart, satStop, satWindow)...)
	}
	stop := time.Now()
	m.rt.add(rt0, readRuntime())
	cs1 := cg.Stats()
	st1, err := statsOf(srv)
	if err != nil {
		return nil, err
	}
	if smp != nil {
		smp.finish()
		m.queuedMax = max(m.queuedMax, smp.queuedMax)
		m.lagMax = max(m.lagMax, smp.lagMax)
		m.pendingMax = max(m.pendingMax, smp.pendingMax)
	}
	ep := cg.Acquire()
	m.nnz = max(m.nnz, ep.NNZ())
	ep.Release()
	m.wall += stop.Sub(start).Seconds()
	m.solves = append(m.solves, st.in.solves.between(start, stop)...)
	m.swaps += cs1.Swaps - cs0.Swaps
	m.retireWaits += cs1.RetireWaits - cs0.RetireWaits
	m.skippedSolves += st1.SkippedSolves - st0.SkippedSolves

	logs = append(logs, pr.events)
	m.attempted += pr.attempted
	m.failed += pr.failed
	m.fresh.xs = append(m.fresh.xs, pr.fresh.xs...)
	m.edgeVisible.xs = append(m.edgeVisible.xs, pr.edgeVisible.xs...)
	m.trustLag.xs = append(m.trustLag.xs, pr.trustLag.xs...)
	m.accept.xs = append(m.accept.xs, pr.accept.xs...)
	return logs, nil
}

// endToEnd fills the end-to-end metrics and the per-workload view.
func (w serveWorkload) endToEnd(out *outcome, setups []float64, m *measured) {
	out.attempted, out.failed = m.attempted, m.failed
	fresh := &m.fresh
	op := &m.write
	if w.satReads {
		op = &m.read
	}
	opTail, opP := op.chunkedTail(latencyChunk)
	satRate := median(m.satRates)
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = op.chunkedPct(latencyChunk, 50)
	out.e2e["op_tail_ms"] = opTail
	out.e2e["visible_p50_ms"] = fresh.pct(50)
	out.e2e["visible_p90_ms"] = fresh.pct(90)
	out.e2e["work_per_s"] = satRate
	out.e2e["ok_frac"] = 1 - float64(m.failed)/float64(max(1, m.attempted))
	out.e2e["rss_peak_mb"] = median(m.rss)
	out.samples["setup_s"] = len(setups)
	out.samples["op_p50_ms"], out.samples["op_tail_ms"] = op.n(), op.n()
	out.samples["visible_p50_ms"], out.samples["visible_p90_ms"] = fresh.n(), fresh.n()
	out.samples["work_per_s"] = m.units
	out.samples["ok_frac"] = m.attempted
	out.samples["rss_peak_mb"] = len(m.rss)

	writeTail, writeP := m.write.tail()
	readTail, readP := m.read.tail()
	satName := "ingest_sat_eps"
	if w.satReads {
		satName = "read_sat_rps"
	}
	out.viewf("setup_s=%.4f (median of %d)  rss_peak_mb=%.1f  error_rate=%.5f (%d/%d)",
		out.e2e["setup_s"], len(setups), out.e2e["rss_peak_mb"], 1-out.e2e["ok_frac"], m.failed, m.attempted)
	out.viewf("write_p50_ms=%.3f write_p99_ms=%.3f (p%g, n=%d)  read_p50_ms=%.3f read_p99_ms=%.3f (p%g, n=%d)",
		m.write.pct(50), writeTail, writeP, m.write.n(), m.read.pct(50), readTail, readP, m.read.n())
	out.viewf("fresh_p50_ms=%.2f fresh_p90_ms=%.2f (n=%d)  %s=%.0f (median of %d %v windows)",
		fresh.pct(50), fresh.pct(90), fresh.n(), satName, satRate, len(m.satRates), satWindow)
	out.viewf("op_p50_ms=%.3f op_tail_ms=%.3f are the median p50 and p%g of %d-request chunks",
		out.e2e["op_p50_ms"], opTail, opP, latencyChunk)
	out.viewf("open loop: offered %.0f req/s, completed %d in %.2fs over %d rounds; gen.late p50=%.3fms p99=%.3fms",
		w.rate, m.sent, m.openDur.Seconds(), m.rounds, m.late.pct(50), m.late.pct(99))
}

// layers fills the per-layer metrics of a traced run and its
// reconciliation table.
func (w serveWorkload) layers(out *outcome, tr *tracer, m *measured) {
	for _, rec := range m.solves {
		attr := "dirty"
		switch {
		case !rec.info.Stats.Refresh.PatternStable:
			attr = "rebuild"
		case !rec.info.Stats.Refresh.DirtyOnly:
			attr = "full"
		}
		tr.record(tr.id(), 0, "solve", attr, rec.at.Add(-rec.info.Duration), rec.at)
	}
	L := out.layer
	serveLayers(L, out, tr.snapshot())
	L["gen.late_p99_ms"] = m.late.pct(99)
	L["serve.refused_frac"] = float64(m.refused) / float64(max(1, m.ingests))
	L["serve.queued_batches_max"] = float64(m.queuedMax)
	L["serve.apply_lag_events_max"] = float64(m.lagMax)
	L["store.publishes_per_s"] = float64(m.swaps) / m.wall
	L["store.retire_waits"] = float64(m.retireWaits)
	L["store.pending_max"] = float64(m.pendingMax)
	L["store.nnz_end"] = float64(m.nnz)
	solveLayers(L, m.solves, m.skippedSolves, m.wall)
	L["fresh.edge_visible_p50_ms"] = m.edgeVisible.pct(50)
	L["fresh.trust_lag_p50_ms"] = m.trustLag.pct(50)
	L["runtime.gc_cpu_frac"], L["runtime.alloc_mb_per_s"] = m.rt.rates()
	out.reconcile = append(out.reconcile,
		fmt.Sprintf("freshness: accept %.2fms + edge_visible %.2fms + trust_lag %.2fms = %.2fms  vs fresh_p50_ms %.2fms (medians)",
			m.accept.pct(50), L["fresh.edge_visible_p50_ms"], L["fresh.trust_lag_p50_ms"],
			m.accept.pct(50)+L["fresh.edge_visible_p50_ms"]+L["fresh.trust_lag_p50_ms"], m.fresh.pct(50)))
}

// streamGen builds stream c of parts. Streams own disjoint source
// partitions (the probe's source excluded), so every source's events go
// out over one connection, in order.
func (w serveWorkload) streamGen(seed uint64, c, parts int, known map[int][]int) *gen {
	srcs := partition(w.peers-1, c, parts)
	g := newGen(int64(seed)*7919+int64(c)+1, w.peers, w.batch, srcs)
	if w.rerate {
		g.known = known
		g.sources = g.sources[:0]
		for _, s := range srcs {
			if len(known[s]) > 0 {
				g.sources = append(g.sources, s)
			}
		}
	}
	return g
}

// serveLayers derives the client and handler metrics from the spans:
// transport time is a client span's self time (its duration minus the
// handler span inside it).
func serveLayers(L map[string]float64, out *outcome, spans []span) {
	self := selfTimes(spans)
	var tw, tr, cw, cr, hw, hr, hsw, hsr sample
	byEndpoint := map[string]*sample{"reputation": {}, "top": {}, "alloc": {}}
	kind := map[uint64]string{}
	for _, s := range spans {
		if s.Name == "client.write" || s.Name == "client.read" {
			kind[s.ID] = s.Name
		}
	}
	for _, s := range spans {
		d := time.Duration(s.dur())
		switch s.Name {
		case "client.write":
			tw.add(time.Duration(self[s.ID]))
			cw.add(d)
		case "client.read":
			tr.add(time.Duration(self[s.ID]))
			cr.add(d)
		case "serve.handler":
			switch kind[s.Parent] {
			case "client.write":
				hw.add(d)
				hsw.add(time.Duration(self[s.ID]))
			case "client.read":
				hr.add(d)
				hsr.add(time.Duration(self[s.ID]))
				if e := byEndpoint[s.Attr]; e != nil {
					e.add(d)
				}
			}
		}
	}
	us := func(ms float64) float64 { return ms * 1e3 }
	L["client.transport_write_p50_us"] = us(tw.pct(50))
	L["client.transport_read_p50_us"] = us(tr.pct(50))
	L["serve.ingest_handler_p50_us"] = us(hw.pct(50))
	L["serve.ingest_handler_p99_us"] = us(hw.pct(99))
	L["serve.read_handler_p50_us"] = us(hr.pct(50))
	L["serve.read_handler_p99_us"] = us(hr.pct(99))
	L["serve.reputation_p50_us"] = us(byEndpoint["reputation"].pct(50))
	L["serve.top_p50_us"] = us(byEndpoint["top"].pct(50))
	L["serve.alloc_p50_us"] = us(byEndpoint["alloc"].pct(50))
	out.samples["serve.ingest_handler_p50_us"] = hw.n()
	out.samples["serve.read_handler_p50_us"] = hr.n()
	out.reconcile = append(out.reconcile,
		fmt.Sprintf("write: handler self %.1fus + transport %.1fus = %.1fus  vs client p50 %.1fus (n=%d)",
			us(hsw.pct(50)), us(tw.pct(50)), us(hsw.pct(50)+tw.pct(50)), us(cw.pct(50)), cw.n()),
		fmt.Sprintf("read:  handler self %.1fus + transport %.1fus = %.1fus  vs client p50 %.1fus (n=%d)",
			us(hsr.pct(50)), us(tr.pct(50)), us(hsr.pct(50)+tr.pct(50)), us(cr.pct(50)), cr.n()))
}

// solveLayers derives the solve metrics from the solves of the window and
// the skipped-solve count.
func solveLayers(L map[string]float64, recs []solveRec, skipped uint64, wall float64) {
	var ms sample
	var rebuilds, dirtyN int
	var dirtyRows, iters, busy float64
	for _, r := range recs {
		ms.add(r.info.Duration)
		busy += r.info.Duration.Seconds()
		iters += float64(r.info.Stats.Iterations)
		if !r.info.Stats.Refresh.PatternStable {
			rebuilds++
		}
		if r.info.Stats.Refresh.DirtyOnly {
			dirtyN++
			dirtyRows += float64(r.info.Stats.Refresh.RowsTouched)
		}
	}
	n := float64(len(recs))
	L["solve.count"] = n
	L["solve.skipped_frac"] = float64(skipped) / math.Max(1, n+float64(skipped))
	L["solve.rebuild_frac"] = float64(rebuilds) / math.Max(1, n)
	L["solve.dirty_rows_mean"] = dirtyRows / math.Max(1, float64(dirtyN))
	L["solve.iters_mean"] = iters / math.Max(1, n)
	L["solve.ms_p50"] = ms.pct(50)
	L["solve.ms_p90"] = ms.pct(90)
	L["solve.busy_frac"] = busy / wall
}

// edgeDump is the /v1/edges response.
type edgeDump struct {
	Peers int        `json:"peers"`
	Edges []dumpEdge `json:"edges"`
}

type dumpEdge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	W    float64 `json:"w"`
}

// verifyServer flushes the server, compares its canonical edge dump with a
// serial LogGraph replay of the accepted events (logs, each in send order;
// distinct logs never share a source), forces a solve, and checks the
// published trust vector.
func verifyServer(cl *client, srv *serve.Server, peers int, logs [][]serve.Event) error {
	if err := cl.post("/v1/flush"); err != nil {
		return err
	}
	var dump edgeDump
	if err := cl.getJSON("/v1/edges", &dump); err != nil {
		return err
	}
	want, err := replay(peers, logs)
	if err != nil {
		return err
	}
	if err := compareEdges(peers, dump, want); err != nil {
		return err
	}
	if err := cl.post("/v1/refresh"); err != nil {
		return err
	}
	snap := srv.Store().TrustSnapshot()
	if snap == nil {
		return errors.New("no trust snapshot published")
	}
	return checkTrustVector(snap.Vector, peers)
}

// replay applies the logs to a serial LogGraph and returns its canonical
// edge list.
func replay(peers int, logs [][]serve.Event) ([]reputation.Edge, error) {
	ref, err := reputation.NewLogGraph(peers)
	if err != nil {
		return nil, err
	}
	for _, log := range logs {
		for _, e := range log {
			if e.Type == serve.EventTrust && e.Set {
				err = ref.SetTrust(e.From, e.To, e.W)
			} else {
				err = ref.AddTrust(e.From, e.To, e.W)
			}
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	return ref.AppendEdges(nil), nil
}

// compareEdges requires the dump to equal want bit-for-bit.
func compareEdges(peers int, dump edgeDump, want []reputation.Edge) error {
	if dump.Peers != peers {
		return fmt.Errorf("server has %d peers, want %d", dump.Peers, peers)
	}
	if len(dump.Edges) != len(want) {
		return fmt.Errorf("edge count: server %d, serial replay %d", len(dump.Edges), len(want))
	}
	for i, e := range dump.Edges {
		if e.From != want[i].From || e.To != want[i].To ||
			math.Float64bits(e.W) != math.Float64bits(want[i].W) {
			return fmt.Errorf("edge %d: server (%d,%d,%v), serial replay (%d,%d,%v)",
				i, e.From, e.To, e.W, want[i].From, want[i].To, want[i].W)
		}
	}
	return nil
}

// checkTrustVector requires a distribution over peers: finite,
// non-negative, summing to 1 within 1e-9.
func checkTrustVector(v []float64, peers int) error {
	if len(v) != peers {
		return fmt.Errorf("trust vector has %d entries, want %d", len(v), peers)
	}
	sum := 0.0
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("trust[%d] = %v", i, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("trust vector sums to %.17g", sum)
	}
	return nil
}
