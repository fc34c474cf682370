package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"collabnet/internal/agent"
	"collabnet/internal/experiments"
	"collabnet/internal/reputation"
	"collabnet/internal/serve"
	"collabnet/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {36, 72}, {100, 90}, {999, 98}, {1000, 99}, {100000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The selected percentile leaves at least ten samples beyond it
		// whenever it is above the median.
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond", c.n, p)
		}
	}
}

func TestChunkedTailIsMedianOfChunkTails(t *testing.T) {
	var s sample
	for c := 0; c < 3; c++ {
		for i := 0; i < 100; i++ {
			s.add(time.Duration(i) * time.Microsecond)
		}
	}
	// One chunk carries a stall: its tail moves, the median of the three
	// chunk tails does not.
	for i := 200; i < 230; i++ {
		s.xs[i] = 500
	}
	plain := sample{xs: s.xs[:100]}
	want, _ := plain.tail()
	got, p := s.chunkedTail(100)
	if got != want || p != 90 {
		t.Fatalf("chunkedTail = %v (p%v), want %v (p90)", got, p, want)
	}
	if whole, _ := s.tail(); whole <= got {
		t.Fatalf("whole-run tail %v should include the stall", whole)
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	var s sample
	for i := 0; i < 98; i++ {
		s.add(time.Millisecond)
	}
	s.fail()
	s.fail()
	if got := s.pct(99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failed = %v, want +Inf", got)
	}
	if got := finite(s.pct(99)); math.IsInf(got, 0) || got < 1e9 {
		t.Fatalf("finite(+Inf) = %v", got)
	}
}

func TestWindowRateMedian(t *testing.T) {
	start := time.Unix(0, 0)
	var done []completion
	for i := 0; i < 40; i++ { // 10 units per 100ms for 4 windows of 1s...
		done = append(done, completion{start.Add(time.Duration(i) * 100 * time.Millisecond), 10})
	}
	done = append(done, completion{start.Add(1500 * time.Millisecond), 1000}) // ...one burst
	rates := windowRates(done, start, start.Add(4*time.Second), time.Second)
	if len(rates) != 4 || rates[1] != 1100 {
		t.Fatalf("windowRates = %v, want 4 windows with the burst in the second", rates)
	}
	if got := median(rates); got != 100 {
		t.Fatalf("median window rate = %v, want 100/s", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "x", Start: 20, End: 50},   // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "y", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 3, Name: "z", Start: 25, End: 35},   // grandchild: not the root's child
		{ID: 6, Parent: 1, Name: "w", Start: 200, End: 300}, // outside the parent
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

// TestOpenLoopTimesFromDueTime drives the open loop against a server whose
// first response stalls: the requests due during the stall are sent late,
// and their latency counts from when they were due, not when they left.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
	}))
	defer ts.Close()
	cl := newClient(ts.URL, nil)
	defer cl.close()
	w := serveWorkload{peers: 100, rate: 1000, writeFrac: 0, batch: 4}
	g := newGen(1, w.peers, w.batch, partition(w.peers-1, 0, 1))
	start := time.Now().Add(5 * time.Millisecond)
	res := w.openLoop(cl, g, 0, 1, start, start.Add(100*time.Millisecond))
	if res.attempted != 100 || res.failed != 0 || res.read.n() != 100 {
		t.Fatalf("attempted %d failed %d reads %d, want 100 0 100", res.attempted, res.failed, res.read.n())
	}
	// Request 10 was due 10ms in but could only leave after the 50ms stall.
	if late := res.late.xs[10]; late < 35 {
		t.Errorf("request 10 left %.1fms late, want >= 35ms", late)
	}
	if lat := res.read.xs[10]; lat < res.late.xs[10] {
		t.Errorf("request 10 latency %.1fms is below its lateness %.1fms", lat, res.late.xs[10])
	}
	// The generator catches up: the last requests leave on time.
	if late := res.late.xs[99]; late > 10 {
		t.Errorf("last request left %.1fms late, want the backlog cleared", late)
	}
}

func TestEdgeGateRejectsMismatchedDump(t *testing.T) {
	events := []serve.Event{
		{Type: serve.EventTrust, From: 0, To: 1, W: 2.5},
		{Type: serve.EventContrib, From: 0, To: 1, W: 0.1},
		{Type: serve.EventTrust, From: 2, To: 1, W: 7, Set: true},
	}
	want, err := replay(3, [][]serve.Event{events})
	if err != nil {
		t.Fatal(err)
	}
	dumpOf := func(edges []reputation.Edge) edgeDump {
		d := edgeDump{Peers: 3}
		for _, e := range edges {
			d.Edges = append(d.Edges, dumpEdge{From: e.From, To: e.To, W: e.W})
		}
		return d
	}
	if err := compareEdges(3, dumpOf(want), want); err != nil {
		t.Fatalf("identical dump rejected: %v", err)
	}
	off := append([]reputation.Edge(nil), want...)
	off[0].W = math.Nextafter(off[0].W, 10) // one ulp
	if err := compareEdges(3, dumpOf(off), want); err == nil {
		t.Error("dump one ulp off passed the gate")
	}
	if err := compareEdges(3, dumpOf(want[:1]), want); err == nil {
		t.Error("dump missing an edge passed the gate")
	}
	if err := compareEdges(4, dumpOf(want), want); err == nil {
		t.Error("dump with the wrong peer count passed the gate")
	}
}

func TestTrustVectorGate(t *testing.T) {
	if err := checkTrustVector([]float64{0.25, 0.25, 0.5}, 3); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	for _, v := range [][]float64{{0.5, 0.5}, {0.5, math.NaN(), 0.5}, {1.5, -0.5, 0}, {0.3, 0.3, 0.3}} {
		if err := checkTrustVector(v, 3); err == nil {
			t.Errorf("vector %v passed the gate", v)
		}
	}
}

// TestFig4ChainsMatchExperiments pins that the benchmark's chains are the
// ones experiments.Fig4 runs: per-point means agree bit-for-bit.
func TestFig4ChainsMatchExperiments(t *testing.T) {
	sc := experiments.Scale{TrainSteps: 200, MeasureSteps: 100, Peers: 12, Replicas: 2, Workers: 2, Seed: 7, WarmStart: true}
	arts, bws, err := experiments.Fig4(sc)
	if err != nil {
		t.Fatal(err)
	}
	chains, _ := fig4Chains(sc, false)
	crs := sim.RunChains(chains, sweepOpts(sc), 2)
	for vi, varied := range []agent.Behavior{agent.Altruistic, agent.Irrational} {
		for pi := range fig4Percents {
			var batch []sim.Result
			for rep := 0; rep < sc.Replicas; rep++ {
				cr := crs[vi*sc.Replicas+rep]
				if cr.Err != nil {
					t.Fatal(cr.Err)
				}
				batch = append(batch, cr.Results[pi])
			}
			m := sim.MeanResult(batch)
			if got, want := m.SharedArticles, arts.Series[vi].Points[pi].Y; got != want {
				t.Errorf("%s %d%%: articles %v, experiments.Fig4 %v", varied, fig4Percents[pi], got, want)
			}
			if got, want := m.SharedBandwidth, bws.Series[vi].Points[pi].Y; got != want {
				t.Errorf("%s %d%%: bandwidth %v, experiments.Fig4 %v", varied, fig4Percents[pi], got, want)
			}
		}
	}
}

// tinyServe shrinks a serve workload to a smoke-test size.
func tinyServe(w serveWorkload) serveWorkload {
	w.peers, w.rate, w.setupReps = 300, 300, 2
	if w.populate > 0 {
		w.populate = 3000
	}
	return w
}

func checkOutcome(t *testing.T, out *outcome, defs []metricDef, vals map[string]float64, nonzero bool) {
	t.Helper()
	if len(out.gate) > 0 {
		t.Fatalf("correctness gate failed: %v", out.gate)
	}
	if out.attempted < 1 {
		t.Fatalf("attempted = %d", out.attempted)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && nonzero {
			t.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(v) || (nonzero && v <= 0) {
			t.Errorf("metric %s = %v", d.name, v)
		}
	}
}

func TestServeWorkloadsSmoke(t *testing.T) {
	for _, w := range []serveWorkload{serveIngest(), serveRead()} {
		w := tinyServe(w)
		t.Run(w.name, func(t *testing.T) {
			out, err := w.run(params{seed: 3, seconds: 0.6})
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, out, endToEnd, out.e2e, true)
		})
	}
}

func TestServeTracedSmoke(t *testing.T) {
	w := tinyServe(serveIngest())
	tr := newTracer()
	out, err := w.run(params{seed: 4, seconds: 0.6, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, nil, nil, false)
	for _, name := range []string{"client.transport_write_p50_us", "serve.ingest_handler_p50_us",
		"solve.count", "store.nnz_end", "fresh.edge_visible_p50_ms"} {
		if out.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.layer[name])
		}
	}
	names := map[string]bool{}
	for _, s := range tr.snapshot() {
		names[s.Name] = true
	}
	for _, n := range []string{"client.write", "client.read", "serve.handler", "solve", "probe", "probe.edge_visible", "probe.trust_visible"} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
}

func tinyFig4() fig4Workload {
	w := paperFig4()
	w.scale = experiments.Scale{TrainSteps: 200, MeasureSteps: 100, Peers: 12, Replicas: 1, WarmStart: true}
	w.check.TrainSteps, w.check.MeasureSteps, w.check.Peers = 100, 50, 8
	w.sweeps, w.setupReps = 2, 2
	return w
}

func TestFig4Smoke(t *testing.T) {
	out, err := tinyFig4().run(params{seed: 5, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, endToEnd, out.e2e, true)
	want := 2 * 2 * 9 // sweeps × chains × points
	if out.attempted != want {
		t.Errorf("attempted %d sweep points, want %d", out.attempted, want)
	}
	// 2 chains × (first point 300 steps + 8 warm points × (10 + 100)) per sweep
	if got := out.samples["work_per_s"]; got != 2*2*(300+8*110) {
		t.Errorf("counted %d steps, want %d", got, 2*2*(300+8*110))
	}
}

func TestFig4TracedSmoke(t *testing.T) {
	out, err := tinyFig4().run(params{seed: 6, seconds: 1, tr: newTracer()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine.step_us_p50", "engine.step_us_p99", "chain.point_setup_ms_mean",
		"chain.measure_share", "chain.worker_imbalance", "agent.selects_per_step"} {
		if out.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.layer[name])
		}
	}
	if got := out.layer["agent.selects_per_step"]; got != 2*12 {
		t.Errorf("selects per step = %v, want 2 per peer (24)", got)
	}
}

func TestReportLastLineIsResult(t *testing.T) {
	out := newOutcome()
	out.attempted = 10
	for _, d := range endToEnd {
		out.e2e[d.name] = 1.5
	}
	var buf bytes.Buffer
	report(&buf, "serve-ingest", 1, false, out)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys = %v", res)
	}
	var metrics map[string]metricJSON
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit || m.Value != 1.5 {
			t.Errorf("metric %s = %+v", d.name, m)
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", stdout.String())
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists to the
// ones the program prints, in order and with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %v, program %v", i, c.json[i], d)
			}
		}
	}
	// BENCHMARK.json gates a subset of the workloads (README.md says why
	// serve-ingest is not among them); each it names must run.
	known := map[string]bool{}
	for _, w := range workloads() {
		known[w.name] = true
	}
	if len(b.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
		delete(known, w.Name) // a second listing fails too
	}
}
