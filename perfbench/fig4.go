package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"collabnet/internal/agent"
	"collabnet/internal/experiments"
	"collabnet/internal/sim"
)

// fig4Workload is the paper's Fig 4 mixture sweep run as warm-start chains:
// for each varied type (altruistic, irrational) and replica, one chain over
// the nine mixtures 10..90%, built exactly as experiments.Fig4 builds them.
type fig4Workload struct {
	scale     experiments.Scale // Replicas = chains per varied type
	sweeps    int               // sweeps per run = max(2, round(seconds / secondsPerSweep))
	perSweep  float64           // approximate seconds one sweep takes on a 2-CPU box
	setupReps int
	// check is the reduced scale of the workers=1 vs workers=nproc
	// bit-identity check run before the timed window.
	check experiments.Scale
}

func paperFig4() fig4Workload {
	sc := experiments.PaperScale()
	sc.Replicas, sc.WarmStart = 1, true
	check := experiments.Scale{TrainSteps: 400, MeasureSteps: 200, Peers: 30, Replicas: 1, WarmStart: true}
	return fig4Workload{scale: sc, perSweep: 3.5, setupReps: 101, check: check}
}

// fig4Percents are the sweep's mixture points.
var fig4Percents = []int{10, 20, 30, 40, 50, 60, 70, 80, 90}

// fig4Mixture is experiments.mixtureSweep: the varied type takes pct% of
// the network and the other two types split the rest equally.
func fig4Mixture(varied agent.Behavior, pct int) sim.Mixture {
	f := float64(pct) / 100
	rest := (1 - f) / 2
	if varied == agent.Altruistic {
		return sim.Mixture{Altruistic: f, Rational: rest, Irrational: rest}
	}
	return sim.Mixture{Irrational: f, Rational: rest, Altruistic: rest}
}

// pointRec is what the hooks record about one sweep point. Each point runs
// on one worker goroutine; the records are read after RunChains returns.
type pointRec struct {
	begin      time.Time // previous point's end on the chain, or Setup for a first point
	firstStep  time.Time // first step hook (end of the first step)
	measure    time.Time // end of the last training step
	end        time.Time // Job.Observe: the point's result is ready
	steps      int
	selects    uint64
	res        sim.Result
	hist       *histogram // step times (traced runs; shared by the chain)
	chain, idx int
}

// fig4Chains builds the sweep's chains at scale sc, with hooks that fill
// recs (one per point, chain-major). traced installs the per-step hook.
func fig4Chains(sc experiments.Scale, traced bool) ([]sim.SweepChain, []*pointRec) {
	var chains []sim.SweepChain
	var recs []*pointRec
	for _, varied := range []agent.Behavior{agent.Altruistic, agent.Irrational} {
		for rep := 0; rep < sc.Replicas; rep++ {
			ci := len(chains)
			var hist *histogram
			if traced {
				hist = &histogram{}
			}
			pts := make([]sim.Job, 0, len(fig4Percents))
			var prev *pointRec
			for pi, pct := range fig4Percents {
				cfg := sim.Default()
				cfg.Peers = sc.Peers
				cfg.TrainSteps = sc.TrainSteps
				cfg.MeasureSteps = sc.MeasureSteps
				cfg.Mix = fig4Mixture(varied, pct)
				cfg.Seed = sc.Seed + uint64(pct)*1000 + uint64(rep)
				rec := &pointRec{hist: hist, chain: ci, idx: pi}
				rec.steps = cfg.MeasureSteps + cfg.TrainSteps
				if pi > 0 {
					rec.steps = cfg.MeasureSteps + burnIn(sc, cfg)
				}
				recs = append(recs, rec)
				before := prev
				pts = append(pts, sim.Job{
					Name:   fmt.Sprintf("%s-%d-rep%d", varied, pct, rep),
					Config: cfg,
					Setup: func(e *sim.Engine) error {
						rec.begin = time.Now()
						if before != nil {
							rec.begin = before.end
						}
						if traced {
							installStepHook(e, rec)
						}
						return nil
					},
					Observe: func(e *sim.Engine, r *sim.Result) {
						rec.end = time.Now()
						rec.res = *r
					},
				})
				prev = rec
			}
			chains = append(chains, sim.SweepChain{Name: fmt.Sprintf("%s-rep%d", varied, rep), Points: pts})
		}
	}
	return chains, recs
}

// burnIn is the warm point's training budget, as sim.ChainOptions derives it.
func burnIn(sc experiments.Scale, cfg sim.Config) int {
	if sc.BurnInSteps > 0 {
		return sc.BurnInSteps
	}
	return cfg.TrainSteps / sim.DefaultBurnInDivisor
}

// installStepHook times every step of the point's engine into the chain's
// histogram and counts action selections: each online peer without a
// scripted policy selects a sharing and an edit/vote action per step.
func installStepHook(e *sim.Engine, rec *pointRec) {
	last := time.Time{}
	agents := e.Agents()
	e.SetStepHook(func(e *sim.Engine) {
		now := time.Now()
		if last.IsZero() {
			rec.firstStep = now
		} else {
			rec.hist.add(now.Sub(last))
		}
		if e.Measuring() && rec.measure.IsZero() {
			rec.measure = last
		}
		last = now
		for i, a := range agents {
			if a.Policy() == nil && e.Online(i) {
				rec.selects += 2
			}
		}
	})
}

// sweepOpts are the chain options experiments.Fig4 uses for a warm sweep.
func sweepOpts(sc experiments.Scale) sim.ChainOptions {
	return sim.ChainOptions{WarmStart: sc.WarmStart, BurnInSteps: sc.BurnInSteps}
}

// sweep runs the chains once on workers and returns the result digest.
func sweep(sc experiments.Scale, workers int, traced bool) ([]*pointRec, time.Time, string, []string) {
	chains, recs := fig4Chains(sc, traced)
	start := time.Now()
	crs := sim.RunChains(chains, sweepOpts(sc), workers)
	var gate []string
	var results []sim.Result
	for _, cr := range crs {
		if cr.Err != nil {
			gate = append(gate, fmt.Sprintf("chain %s: %v", cr.Name, cr.Err))
			continue
		}
		if len(cr.Results) != len(fig4Percents) {
			gate = append(gate, fmt.Sprintf("chain %s: %d results, want %d", cr.Name, len(cr.Results), len(fig4Percents)))
		}
		results = append(results, cr.Results...)
	}
	for i, r := range results {
		if err := checkResult(r); err != nil {
			gate = append(gate, fmt.Sprintf("result %d: %v", i, err))
		}
	}
	return recs, start, digest(results), gate
}

// checkResult requires every figure of a result to be finite and every
// fraction to lie in [0,1]. Download success is completions over starts
// inside the measurement window, and downloads started during training
// complete inside it, so that ratio may exceed 1; it is only required to
// be finite and non-negative.
func checkResult(r sim.Result) error {
	fracs := map[string]float64{
		"shared articles": r.SharedArticles, "shared bandwidth": r.SharedBandwidth,
		"verdict accuracy": r.VerdictAccuracy(),
	}
	for b, st := range r.PerBehavior {
		fracs[b.String()+" shared articles"] = st.SharedArticles
		fracs[b.String()+" shared bandwidth"] = st.SharedBandwidth
		for name, v := range map[string]float64{"mean utility": st.MeanUtilityS, "download success": st.DownloadSuccess()} {
			if math.IsNaN(v) || math.IsInf(v, 0) || (name == "download success" && v < 0) {
				return fmt.Errorf("%s %s = %v", b, name, v)
			}
		}
	}
	for name, v := range fracs {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("%s = %v, want a fraction in [0,1]", name, v)
		}
	}
	if math.IsNaN(r.MeanDownloadTime) || math.IsInf(r.MeanDownloadTime, 0) || r.MeanDownloadTime < 0 {
		return fmt.Errorf("mean download time %v", r.MeanDownloadTime)
	}
	return nil
}

// digest hashes results exactly: JSON renders every float in its shortest
// round-tripping form and map keys in order.
func digest(results []sim.Result) string {
	data, err := json.Marshal(results)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// setupOnce builds the sweep's chains and constructs every point's engine
// (configuration validation, agents, the seeded article store): the work a
// sweep does before its first step.
func (w fig4Workload) setupOnce() error {
	chains, _ := fig4Chains(w.scale, false)
	for _, c := range chains {
		for _, pt := range c.Points {
			if _, err := sim.New(pt.Config); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w fig4Workload) run(p params) (*outcome, error) {
	out := newOutcome()
	w.scale.Seed = p.seed
	sc := w.scale
	var setups []float64
	for r := 0; r < w.setupReps; r++ {
		t0 := time.Now()
		if err := w.setupOnce(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Outside the timed window: the sweep must be bit-identical on one
	// worker and on every worker (at least two, so the pool is exercised).
	nproc := runtime.GOMAXPROCS(0)
	check := w.check
	check.Seed = p.seed
	_, _, d1, g1 := sweep(check, 1, false)
	_, _, dn, gn := sweep(check, max(2, nproc), false)
	out.gate = append(out.gate, g1...)
	out.gate = append(out.gate, gn...)
	if d1 != dn {
		out.fail("reduced-scale sweep differs between 1 and %d workers: %s vs %s", max(2, nproc), d1, dn)
	}

	sweeps := w.sweeps
	if sweeps == 0 {
		sweeps = max(2, int(math.Round(p.seconds/w.perSweep)))
	}
	traced := p.tr != nil
	var recs []*pointRec
	var visible sample
	var digests []string
	var rates []float64  // engine steps per second of each sweep
	var rss []float64    // resident set at the end of each sweep
	debug.FreeOSMemory() // set-up's garbage leaves the resident set
	rt0 := readRuntime()
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		rs, t0, d, gate := sweep(sc, nproc, traced)
		t1 := time.Now()
		out.gate = append(out.gate, gate...)
		digests = append(digests, d)
		n := 0
		for _, r := range rs {
			visible.add(r.end.Sub(t0))
			n += r.steps
		}
		rates = append(rates, float64(n)/t1.Sub(t0).Seconds())
		rss = append(rss, rssMB())
		recs = append(recs, rs...)
		if traced {
			recordChainSpans(p.tr, rs)
		}
	}
	wall := time.Since(start)
	rt1 := readRuntime()
	for _, d := range digests[1:] {
		if d != digests[0] {
			out.fail("result digest differs between sweeps of one seed: %v", digests)
			break
		}
	}

	var op sample
	steps := 0
	for _, r := range recs {
		op.add(r.end.Sub(r.begin))
		steps += r.steps
	}
	out.attempted = len(recs)
	out.failed = min(len(out.gate), out.attempted)
	// Every end-to-end figure is the median over sweeps of the sweep's
	// figure (each sweep does the same work), so a slow spell of a shared
	// host moves a few sweeps rather than the run. The tail is taken at
	// the percentile of the whole run's points.
	perSweep := len(recs) / sweeps
	opP := tailPercentile(op.n())
	opTail := op.chunkedPct(perSweep, opP)
	stepsPerSec := median(rates)
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = op.chunkedPct(perSweep, 50)
	out.e2e["op_tail_ms"] = opTail
	out.e2e["visible_p50_ms"] = visible.chunkedPct(perSweep, 50)
	out.e2e["visible_p90_ms"] = visible.chunkedPct(perSweep, 90)
	out.e2e["work_per_s"] = stepsPerSec
	out.e2e["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	out.e2e["rss_peak_mb"] = median(rss)
	out.samples["setup_s"] = len(setups)
	out.samples["op_p50_ms"], out.samples["op_tail_ms"] = op.n(), op.n()
	out.samples["visible_p50_ms"], out.samples["visible_p90_ms"] = visible.n(), visible.n()
	out.samples["work_per_s"] = steps
	out.samples["ok_frac"] = out.attempted
	out.samples["rss_peak_mb"] = len(rss)
	out.viewf("setup_s=%.4f (median of %d)  rss_peak_mb=%.1f", out.e2e["setup_s"], len(setups), out.e2e["rss_peak_mb"])
	out.viewf("sim_steps_per_s=%.0f (median of %d sweeps of %d chains; %d steps in %.2fs, %d workers)",
		stepsPerSec, sweeps, perSweep/len(fig4Percents), steps, wall.Seconds(), nproc)
	out.viewf("sweep point p50=%.1fms tail=%.1fms (p%g, n=%d); digest %s", op.pct(50), opTail, opP, op.n(), digests[0])

	if !traced {
		return out, nil
	}
	fig4Layers(out.layer, recs, nproc)
	out.layer["runtime.gc_cpu_frac"], out.layer["runtime.alloc_mb_per_s"] = rt1.since(rt0)
	return out, nil
}

// recordChainSpans turns one sweep's point records into spans: a
// chain.point root per point with engine.train and engine.measure children.
func recordChainSpans(tr *tracer, recs []*pointRec) {
	for _, r := range recs {
		id := tr.id()
		tr.record(id, 0, "chain.point", fmt.Sprintf("chain%d/point%d", r.chain, r.idx), r.begin, r.end)
		tr.record(tr.id(), id, "engine.train", "", r.firstStep, r.measure)
		tr.record(tr.id(), id, "engine.measure", "", r.measure, r.end)
	}
}

// fig4Layers derives the sim-layer metrics from the traced points.
func fig4Layers(L map[string]float64, recs []*pointRec, workers int) {
	var hist histogram
	merged := map[*histogram]bool{}
	var setupMs, measure, total, selects, hookSteps float64
	var downloads, attempts, sessions, measureSteps float64
	for _, r := range recs {
		if !merged[r.hist] {
			merged[r.hist] = true
			hist.merge(r.hist)
		}
		setupMs += float64(r.firstStep.Sub(r.begin)) / 1e6
		measure += r.end.Sub(r.measure).Seconds()
		total += r.end.Sub(r.begin).Seconds()
		selects += float64(r.selects)
		hookSteps += float64(r.steps)
		downloads += float64(r.res.Downloads)
		for _, b := range r.res.PerBehavior {
			attempts += float64(b.DownloadAttempts)
			sessions += float64(b.ConstructiveEdits + b.DestructiveEdits)
		}
		measureSteps += float64(r.res.Steps)
	}
	n := float64(len(recs))
	L["engine.step_us_p50"] = hist.quantile(50)
	L["engine.step_us_p99"] = hist.quantile(99)
	L["chain.point_setup_ms_mean"] = setupMs / n
	L["chain.measure_share"] = measure / total
	L["chain.worker_imbalance"] = workerImbalance(recs, workers)
	L["agent.selects_per_step"] = selects / hookSteps
	L["network.downloads_per_step"] = downloads / measureSteps
	L["network.dl_success"] = downloads / math.Max(1, attempts)
	L["articles.sessions_per_step"] = sessions / measureSteps
}

// workerImbalance is max/mean worker busy time over the sweeps. RunChains
// does not say which worker ran a chain, so the assignment is rebuilt: a
// chain went to the worker that became free first before it started.
func workerImbalance(recs []*pointRec, workers int) float64 {
	type span struct{ start, end time.Time }
	chains := map[[2]int]*span{} // (sweep start order, chain) → busy interval
	var order [][2]int
	sweep := -1
	for _, r := range recs {
		if r.chain == 0 && r.idx == 0 {
			sweep++
		}
		k := [2]int{sweep, r.chain}
		c := chains[k]
		if c == nil {
			c = &span{start: r.begin, end: r.end}
			chains[k] = c
			order = append(order, k)
		}
		if r.end.After(c.end) {
			c.end = r.end
		}
	}
	workers = min(workers, len(order)/max(1, sweep+1))
	busy := make([]float64, workers)
	free := make([]time.Time, workers)
	for _, k := range order {
		c := chains[k]
		w := 0
		for i := range free {
			if free[i].Before(free[w]) {
				w = i
			}
		}
		busy[w] += c.end.Sub(c.start).Seconds()
		free[w] = c.end
	}
	peak, sum := 0.0, 0.0
	for _, b := range busy {
		peak = math.Max(peak, b)
		sum += b
	}
	if sum == 0 {
		return 0
	}
	return peak / (sum / float64(workers))
}
