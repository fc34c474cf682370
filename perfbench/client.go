package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"collabnet/internal/serve"
)

// spanHeader carries the client span id to the server so the handler span
// can name its parent.
const spanHeader = "X-Bench-Span"

// client is one HTTP connection's worth of load: its own transport, capped
// at one connection, so the number of clients is the number of
// connections the benchmark holds open.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
}

func newClient(url string, tr *tracer) *client {
	return &client{
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url: url,
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns its status; the body is read to the end
// (so the connection is reused) and returned when keep is set. With a
// tracer, the request is a root span named name carrying attr.
func (c *client) do(method, path string, body []byte, name, attr string, keep bool) (int, []byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := c.tr.id()
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	var data []byte
	if keep {
		data, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	c.tr.record(id, 0, name, attr, start, time.Now())
	return resp.StatusCode, data, err
}

// ingestBody is the write-plane payload.
type ingestBody struct {
	Events []serve.Event `json:"events"`
}

// ingest posts one batch; ok means 202 Accepted.
func (c *client) ingest(ev []serve.Event) (status int, err error) {
	body, err := json.Marshal(ingestBody{Events: ev})
	if err != nil {
		return 0, err
	}
	status, _, err = c.do(http.MethodPost, "/v1/events", body, "client.write", "events", false)
	return status, err
}

// post sends a body-less maintenance POST and requires 200.
func (c *client) post(path string) error {
	status, data, err := c.do(http.MethodPost, path, nil, "client.admin", "", true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, status, strings.TrimSpace(string(data)))
	}
	return nil
}

// getJSON fetches path and decodes the 200 response into v as it streams
// in (an edge dump runs to tens of megabytes).
func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// gen generates one stream's requests deterministically from its seed,
// with loadgen's default traffic shape: single-source batches, zipf-1.2
// targets, 25% trust / 75% contrib events, weights in [1,10), and reads
// split 50% reputation / 25% top / 25% alloc.
type gen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	peers   int
	batch   int
	sources []int // the source peers this stream writes for
	// known, when set, restricts writes to re-rating edges that already
	// exist: source → its current targets. Trust events then overwrite.
	known map[int][]int
}

func newGen(seed int64, peers, batch int, sources []int) *gen {
	rng := rand.New(rand.NewSource(seed))
	return &gen{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(peers-1)),
		peers: peers, batch: batch, sources: sources}
}

// partition returns the sources s in [0, n) with s % parts == part.
func partition(n, part, parts int) []int {
	var out []int
	for s := part; s < n; s += parts {
		out = append(out, s)
	}
	return out
}

// weight draws an event weight in [1,10).
func (g *gen) weight() float64 { return 1 + g.rng.Float64()*9 }

// ingest builds one single-source batch.
func (g *gen) ingest() []serve.Event {
	src := g.sources[g.rng.Intn(len(g.sources))]
	ev := make([]serve.Event, 0, g.batch)
	for len(ev) < g.batch {
		trust := g.rng.Float64() < 0.25
		e := serve.Event{Type: serve.EventContrib, From: src, W: g.weight()}
		if trust {
			e.Type = serve.EventTrust
		}
		if g.known != nil {
			ts := g.known[src]
			e.To = ts[g.rng.Intn(len(ts))]
			e.Set = trust
		} else if e.To = int(g.zipf.Uint64()); e.To == src {
			continue
		}
		ev = append(ev, e)
	}
	return ev
}

// read returns one read request's path and endpoint name.
func (g *gen) read() (path, endpoint string) {
	peer := int(g.zipf.Uint64())
	switch g.rng.Intn(4) {
	case 0:
		return "/v1/top?k=10", "top"
	case 1:
		d1, d2 := g.rng.Intn(g.peers), g.rng.Intn(g.peers)
		return fmt.Sprintf("/v1/alloc?source=%d&d=%d,%d", peer, d1, d2), "alloc"
	default:
		return fmt.Sprintf("/v1/reputation/%d", peer), "reputation"
	}
}

// history generates the fixed populate history: total events in
// single-source batches over the given sources, plus each source's
// distinct targets (the edges a re-rating stream may touch).
func history(seed int64, peers, batch, total int, sources []int) ([]serve.Event, map[int][]int) {
	g := newGen(seed, peers, batch, sources)
	events := make([]serve.Event, 0, total)
	seen := make(map[[2]int]bool)
	known := make(map[int][]int)
	for len(events) < total {
		for _, e := range g.ingest() {
			events = append(events, e)
			if k := [2]int{e.From, e.To}; !seen[k] {
				seen[k] = true
				known[e.From] = append(known[e.From], e.To)
			}
		}
	}
	return events, known
}

// traceHandler wraps the server's handler so each request records a
// serve.handler span, parented on the client span named in spanHeader.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 { // set-up and verification traffic is not traced
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(tr.id(), parent, "serve.handler", endpointOf(r.URL.Path), start, time.Now())
	})
}

// endpointOf names the route a request path hits.
func endpointOf(path string) string {
	switch {
	case path == "/v1/events":
		return "events"
	case strings.HasPrefix(path, "/v1/reputation/"):
		return "reputation"
	case path == "/v1/top":
		return "top"
	case path == "/v1/alloc":
		return "alloc"
	}
	return strings.TrimPrefix(path, "/v1/")
}
