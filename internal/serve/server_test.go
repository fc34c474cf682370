package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
)

// newTestServer builds a small started server plus its HTTP front end and
// registers cleanup in dependency order (listener, then planes).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Peers == 0 {
		cfg.Peers = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestIngestAndQuery drives the full write→flush→solve→read path over HTTP.
func TestIngestAndQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{Peers: 8})
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[
		{"type":"trust","from":0,"to":3,"w":4},
		{"type":"contrib","from":1,"to":3,"w":2},
		{"type":"trust","from":2,"to":1,"w":1,"set":true}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if r := decodeBody[ingestResponse](t, resp); r.Accepted != 3 || r.Rejected != 0 {
		t.Fatalf("ingest response %+v", r)
	}

	resp = postJSON(t, ts.URL+"/v1/flush", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.Store().Trust(0, 3); got != 4 {
		t.Fatalf("trust(0,3) = %v after flush, want 4", got)
	}

	// Before any data-driven solve the founding publish is live: reads
	// answer the uniform vector rather than blocking or erroring.
	resp, err := http.Get(ts.URL + "/v1/reputation/3")
	if err != nil {
		t.Fatal(err)
	}
	if rep := decodeBody[reputationResponse](t, resp); !rep.Solved || rep.Trust != 1.0/8 {
		t.Fatalf("pre-refresh read should see the uniform vector: %+v", rep)
	}

	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/reputation/3")
	if err != nil {
		t.Fatal(err)
	}
	rep := decodeBody[reputationResponse](t, resp)
	if !rep.Solved || rep.Trust <= 0 {
		t.Fatalf("peer 3 not trusted after solve: %+v", rep)
	}

	resp, err = http.Get(ts.URL + "/v1/top?k=3")
	if err != nil {
		t.Fatal(err)
	}
	top := decodeBody[topResponse](t, resp)
	if len(top.Top) != 3 || top.Top[0].Peer != 3 {
		t.Fatalf("top-3 should lead with peer 3: %+v", top)
	}

	resp, err = http.Get(ts.URL + "/v1/alloc?source=0&d=3,5")
	if err != nil {
		t.Fatal(err)
	}
	alloc := decodeBody[allocResponse](t, resp)
	if len(alloc.Shares) != 2 || alloc.Shares[0] <= alloc.Shares[1] {
		t.Fatalf("trusted downloader should out-earn untrusted: %+v", alloc)
	}
	sum := alloc.Shares[0] + alloc.Shares[1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("alloc shares must normalize, got sum %v", sum)
	}

	resp, err = http.Get(ts.URL + "/v1/trust?from=0&to=3")
	if err != nil {
		t.Fatal(err)
	}
	if edge := decodeBody[trustEdgeResponse](t, resp); edge.W != 4 {
		t.Fatalf("point read w=%v, want 4", edge.W)
	}

	resp, err = http.Get(ts.URL + "/v1/peers/0/edges")
	if err != nil {
		t.Fatal(err)
	}
	if row := decodeBody[peerEdgesResponse](t, resp); len(row.Edges) != 1 || row.Edges[0].To != 3 {
		t.Fatalf("peer 0 row %+v", row)
	}
}

// TestIngestRejectsMalformed pins every 4xx admission path.
func TestIngestRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8, MaxBatch: 4})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"truncated json", `{"events":[{"type":"trust"`, http.StatusBadRequest},
		{"wrong shape", `[1,2,3]`, http.StatusBadRequest},
		{"empty batch", `{"events":[]}`, http.StatusBadRequest},
		{"unknown type", `{"events":[{"type":"gossip","from":0,"to":1,"w":1}]}`, http.StatusBadRequest},
		{"peer out of range", `{"events":[{"type":"trust","from":0,"to":99,"w":1}]}`, http.StatusBadRequest},
		{"negative peer", `{"events":[{"type":"trust","from":-1,"to":1,"w":1}]}`, http.StatusBadRequest},
		{"self edge", `{"events":[{"type":"trust","from":2,"to":2,"w":1}]}`, http.StatusBadRequest},
		{"zero contribution", `{"events":[{"type":"contrib","from":0,"to":1,"w":0}]}`, http.StatusBadRequest},
		{"negative set", `{"events":[{"type":"trust","from":0,"to":1,"w":-1,"set":true}]}`, http.StatusBadRequest},
		{"over batch cap", `{"events":[` + strings.Repeat(`{"type":"trust","from":0,"to":1,"w":1},`, 4) +
			`{"type":"trust","from":0,"to":1,"w":1}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/events", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// One bad event poisons its whole request: nothing may be applied.
	resp := postJSON(t, ts.URL+"/v1/events",
		`{"events":[{"type":"trust","from":0,"to":1,"w":1},{"type":"trust","from":0,"to":0,"w":1}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	if dump := decodeBody[edgesResponse](t, resp); len(dump.Edges) != 0 {
		t.Fatalf("invalid batch leaked edges: %+v", dump.Edges)
	}
}

// holdMaintenance parks a goroutine inside the store's maintenance lock,
// as a long solve would, until the returned release is called (at the
// latest on cleanup, before the server stops): nothing drains the ingest
// shards or publishes meanwhile.
func holdMaintenance(t *testing.T, cg *reputation.ConcurrentGraph) (release func()) {
	held, done, rel := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		cg.Exclusive(func(*reputation.LogGraph) { close(held); <-rel })
		close(done)
	}()
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(rel); <-done }) }
	t.Cleanup(release)
	return release
}

// requireReadsOK fails unless every read endpoint answers 200.
func requireReadsOK(t *testing.T, url string) {
	t.Helper()
	for _, path := range []string{
		"/v1/reputation/1", "/v1/top?k=2", "/v1/alloc?source=0&d=1,2",
		"/v1/trust?from=0&to=1", "/v1/peers/0/edges", "/v1/stats", "/healthz",
	} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// edgeDump reads the canonical edge dump (which folds the backlog first).
func edgeDump(t *testing.T, url string) []edgeJSON {
	t.Helper()
	resp, err := http.Get(url + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[edgesResponse](t, resp).Edges
}

// replayDump is the serial reference: the canonical edges of a LogGraph
// that applies the given batches once each, in order.
func replayDump(t *testing.T, peers int, batches ...[]Event) []edgeJSON {
	t.Helper()
	ref, err := reputation.NewLogGraph(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, e := range b {
			if e.Type == EventTrust && e.Set {
				err = ref.SetTrust(e.From, e.To, e.W)
			} else {
				err = ref.AddTrust(e.From, e.To, e.W)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	out := []edgeJSON{}
	for _, e := range ref.AppendEdges(nil) {
		out = append(out, edgeJSON{From: e.From, To: e.To, W: e.W})
	}
	return out
}

// ingest posts one batch and returns the status and decoded response.
func ingest(t *testing.T, url string, ev []Event) (int, ingestResponse) {
	t.Helper()
	body, err := json.Marshal(ingestRequest{Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, url+"/v1/events", string(body))
	return resp.StatusCode, decodeBody[ingestResponse](t, resp)
}

// TestBackpressure429 fills the backlog of an unstarted server whose
// maintenance lock is held and requires a whole-batch 429 with
// Retry-After; flushing (which works before Start) then applies exactly
// the admitted batch.
func TestBackpressure429(t *testing.T) {
	s, err := New(Config{Peers: 8, Shards: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := holdMaintenance(t, s.Store())

	first := []Event{{Type: EventTrust, From: 0, To: 1, W: 5}}
	if code, r := ingest(t, ts.URL, first); code != http.StatusAccepted || r.Accepted != 1 {
		t.Fatalf("first batch: %d %+v, want 202 accepting 1", code, r)
	}
	resp := postJSON(t, ts.URL+"/v1/events",
		`{"events":[{"type":"trust","from":1,"to":2,"w":7},{"type":"trust","from":2,"to":3,"w":9}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if r := decodeBody[ingestResponse](t, resp); r.Rejected != 2 || r.Accepted != 0 {
		t.Fatalf("whole batch must be refused together: %+v", r)
	}
	release()

	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush before Start: status %d, want 200", resp.StatusCode)
	}
	if got := s.Store().Trust(0, 1); got != 5 {
		t.Fatalf("trust(0,1) = %v after flush, want 5", got)
	}
	if got, want := edgeDump(t, ts.URL), replayDump(t, 8, first); !reflect.DeepEqual(got, want) {
		t.Fatalf("store must hold exactly the admitted batch: %+v, want %+v", got, want)
	}
	if s.rejected.Load() != 2 || s.accepted.Load() != 1 {
		t.Fatalf("counters accepted=%d rejected=%d", s.accepted.Load(), s.rejected.Load())
	}
}

// TestIngestWholeBatch429 pins that a 429 applies nothing for any batch
// shape: a batch over two sources, hence both ingest shards, that does not
// fit the backlog is refused whole, and an identical retry after a flush
// applies it exactly once.
func TestIngestWholeBatch429(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8, Shards: 2, QueueDepth: 3, Refresh: time.Hour})
	first := []Event{{Type: EventContrib, From: 2, To: 5, W: 1.5}}
	if code, _ := ingest(t, ts.URL, first); code != http.StatusAccepted {
		t.Fatalf("first batch status %d, want 202", code)
	}
	split := []Event{
		{Type: EventContrib, From: 0, To: 3, W: 2},
		{Type: EventTrust, From: 1, To: 3, W: 4},
		{Type: EventContrib, From: 0, To: 4, W: 0.25},
	}
	code, r := ingest(t, ts.URL, split)
	if code != http.StatusTooManyRequests || r != (ingestResponse{Accepted: 0, Rejected: 3}) {
		t.Fatalf("two-source batch past the backlog: %d %+v, want 429 {accepted:0 rejected:3}", code, r)
	}
	if got, want := edgeDump(t, ts.URL), replayDump(t, 8, first); !reflect.DeepEqual(got, want) {
		t.Fatalf("a 429 changed the store: %+v, want %+v", got, want)
	}
	resp := postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	if code, r := ingest(t, ts.URL, split); code != http.StatusAccepted || r.Accepted != 3 {
		t.Fatalf("retry after flush: %d %+v, want 202 accepting 3", code, r)
	}
	if got, want := edgeDump(t, ts.URL), replayDump(t, 8, first, split); !reflect.DeepEqual(got, want) {
		t.Fatalf("retry must apply the batch exactly once: %+v, want %+v", got, want)
	}
}

// TestIngestBacklogBound holds the maintenance lock, as a long solve does,
// and requires ingest to refuse once the next batch would pass QueueDepth:
// the store's backlog never exceeds it, every read endpoint keeps
// answering, and after the lock is released exactly the admitted batches
// land.
func TestIngestBacklogBound(t *testing.T) {
	const depth = 10
	s, ts := newTestServer(t, Config{Peers: 8, Shards: 1, QueueDepth: depth})
	release := holdMaintenance(t, s.Store())
	var admitted [][]Event
	refused := 0
	for i := 0; i < 20; i++ {
		ev := make([]Event, 4)
		for k := range ev {
			ev[k] = Event{Type: EventContrib, From: k, To: k + 1 + i%3, W: float64(i + 1)}
		}
		switch code, _ := ingest(t, ts.URL, ev); code {
		case http.StatusAccepted:
			admitted = append(admitted, ev)
		case http.StatusTooManyRequests:
			refused++
		default:
			t.Fatalf("batch %d: status %d", i, code)
		}
		if p := s.Store().Stats().Pending; p > depth {
			t.Fatalf("batch %d: backlog %d past QueueDepth %d", i, p, depth)
		}
		requireReadsOK(t, ts.URL)
	}
	if len(admitted) != depth/4 || refused != 20-depth/4 {
		t.Fatalf("admitted %d, refused %d batches; want %d and %d", len(admitted), refused, depth/4, 20-depth/4)
	}
	release()
	if got, want := edgeDump(t, ts.URL), replayDump(t, 8, admitted...); !reflect.DeepEqual(got, want) {
		t.Fatalf("store holds %+v, want the admitted batches %+v", got, want)
	}
}

// TestReadsNeverBlockOnQueues pins the plane separation: with events
// queued and the maintenance lock held (as during a long solve), every
// read endpoint still answers and ingest still admits.
func TestReadsNeverBlockOnQueues(t *testing.T) {
	s, ts := newTestServer(t, Config{Peers: 8})
	holdMaintenance(t, s.Store())
	if code, _ := ingest(t, ts.URL, []Event{{Type: EventTrust, From: 0, To: 1, W: 5}}); code != http.StatusAccepted {
		t.Fatalf("ingest with the maintenance lock held: status %d", code)
	}
	requireReadsOK(t, ts.URL)
}

// TestStatsSurface checks the counters a dashboard would scrape.
func TestStatsSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8})
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":5}]}`)
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[statsResponse](t, resp)
	if !st.Started || st.Accepted != 1 || st.Applied != 1 || st.Refreshes != 1 || st.TrustEpoch == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Solver observability: the forced refresh solved real work, so the
	// record must show iterations, convergence, and the solve wall time.
	if st.SolveSkipped || st.SolveIterations == 0 || !st.SolveConverged || st.SolveSeconds <= 0 {
		t.Fatalf("solver stats after a dirty refresh: %+v", st)
	}
	if st.WarmSolves+st.ColdSolves == 0 {
		t.Fatalf("solve counters after a refresh: %+v", st)
	}

	// A second forced refresh with nothing new must surface as a skip.
	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st = decodeBody[statsResponse](t, resp)
	if !st.SolveSkipped || st.SolveIterations != 0 || st.SkippedSolves == 0 {
		t.Fatalf("solver stats after a zero-delta refresh: %+v", st)
	}
}

// TestSolveLogHook pins that Config.SolveLog fires for refreshes that
// solved and stays silent for skips.
func TestSolveLogHook(t *testing.T) {
	var mu sync.Mutex
	var infos []incentive.SolveInfo
	cfg := Config{Peers: 8, SolveLog: func(info incentive.SolveInfo) {
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
	}}
	_, ts := newTestServer(t, cfg)
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":5}]}`)
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/refresh", "") // zero-delta: skipped, not logged
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(infos) == 0 {
		t.Fatal("SolveLog never fired")
	}
	for _, info := range infos {
		if info.Skipped {
			t.Fatalf("SolveLog fired for a skipped solve: %+v", info)
		}
		if info.Stats.Iterations == 0 || !info.Stats.Converged {
			t.Fatalf("SolveLog info %+v", info)
		}
	}
}

// TestMethodAndRouteErrors pins the routing contract.
func TestMethodAndRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8})
	resp, err := http.Get(ts.URL + "/v1/events") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/events: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/reputation/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad peer id: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/top?k=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/alloc?source=0&d=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty downloaders: status %d, want 400", resp.StatusCode)
	}
}

// TestConfigDefaults pins withDefaults.
func TestConfigDefaults(t *testing.T) {
	c := Config{Peers: 4}.withDefaults()
	if c.Shards != DefaultShards || c.QueueDepth != DefaultQueueDepth ||
		c.MaxBatch != DefaultMaxBatch || c.Refresh != DefaultRefresh {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c = Config{Peers: 4, Shards: 2, QueueDepth: 9, MaxBatch: 11, Refresh: 42}.withDefaults()
	if c.Shards != 2 || c.QueueDepth != 9 || c.MaxBatch != 11 || c.Refresh != 42 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}

// TestEventValidate covers the admission predicate directly.
func TestEventValidate(t *testing.T) {
	ok := []Event{
		{Type: EventTrust, From: 0, To: 1, W: 1},
		{Type: EventTrust, From: 0, To: 1, W: 0, Set: true}, // deletion
		{Type: EventContrib, From: 1, To: 0, W: 0.5},
	}
	for _, e := range ok {
		if err := e.validate(4); err != nil {
			t.Errorf("%+v should validate: %v", e, err)
		}
	}
	bad := []Event{
		{Type: "x", From: 0, To: 1, W: 1},
		{Type: EventTrust, From: 0, To: 4, W: 1},
		{Type: EventTrust, From: 1, To: 1, W: 1},
		{Type: EventTrust, From: 0, To: 1, W: 0},
		{Type: EventTrust, From: 0, To: 1, W: -1, Set: true},
		{Type: EventContrib, From: 0, To: 1, W: 0},
	}
	for _, e := range bad {
		if err := e.validate(4); err == nil {
			t.Errorf("%+v should be rejected", e)
		}
	}
}

// TestWriterBarrierOrdering sends one source's accumulating statements as
// separate requests while the maintenance lock is held, then a final
// overwrite; after a flush the overwrite must win, proving the backlog
// folds in admission order.
func TestWriterBarrierOrdering(t *testing.T) {
	s, ts := newTestServer(t, Config{Peers: 4, Shards: 1, QueueDepth: 64})
	release := holdMaintenance(t, s.Store())
	for i := 1; i <= 50; i++ {
		if code, _ := ingest(t, ts.URL, []Event{{Type: EventTrust, From: 0, To: 1, W: float64(i)}}); code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", i, code)
		}
	}
	if code, _ := ingest(t, ts.URL, []Event{{Type: EventTrust, From: 0, To: 1, W: 7, Set: true}}); code != http.StatusAccepted {
		t.Fatalf("final set: status %d", code)
	}
	if st := s.Store().Stats(); st.Pending != 51 {
		t.Fatalf("backlog %d with the lock held, want 51", st.Pending)
	}
	release()
	resp := postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	if got := s.Store().Trust(0, 1); got != 7 {
		t.Fatalf("trust(0,1) = %v, want the last Set to win (7)", got)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if st := decodeBody[statsResponse](t, resp); st.Applied != 51 || st.Pending != 0 {
		t.Fatalf("stats after flush: applied %d pending %d, want 51 and 0", st.Applied, st.Pending)
	}
}

func ExampleEvent() {
	e := Event{Type: EventContrib, From: 2, To: 9, W: 1.5}
	b, _ := json.Marshal(e)
	fmt.Println(string(b))
	// Output: {"type":"contrib","from":2,"to":9,"w":1.5}
}

// TestEventValidateRejectsNonFinite pins that NaN and ±Inf weights never
// reach the store: the stores reject them too, so an admitted event
// carrying one would be acknowledged and then silently dropped.
func TestEventValidateRejectsNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, e := range []Event{
			{Type: EventTrust, From: 0, To: 1, W: w},
			{Type: EventTrust, From: 0, To: 1, W: w, Set: true},
			{Type: EventContrib, From: 0, To: 1, W: w},
		} {
			if err := e.validate(4); err == nil {
				t.Errorf("%+v should be rejected", e)
			}
		}
	}
}
