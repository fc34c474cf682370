package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzIngestDecode posts arbitrary bodies to the ingest handler, twice
// each, on a fresh unstarted server whose backlog fits at most two small
// batches. Every answer must be 202, 400, 413 or 429; a 202 must grow the
// backlog by exactly the batch's events and anything else must leave it
// unchanged; and after a flush the store must equal a serial replay of
// the 202'd batches, each applied exactly once.
func FuzzIngestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"events":[{"type":"trust","from":0,"to":1,"w":2.5}]}`,
		`{"events":[{"type":"contrib","from":1,"to":0,"w":1},{"type":"trust","from":2,"to":3,"w":0,"set":true}]}`,
		`{"events":[{"type":"contrib","from":0,"to":1,"w":1},{"type":"contrib","from":3,"to":2,"w":1},{"type":"trust","from":5,"to":4,"w":7}]}`,
		`{"events":[{"type":"trust","from":0,"to":9,"w":1}]}`,
		`{"events":[{"type":"trust","from":0,"to":1,"w":1e308},{"type":"trust","from":0,"to":1,"w":1e308}]}`,
		`{"events":[]}`,
		`{"events":[{"type":"trust"`,
		`[1,2,3]`,
		`{"events":null} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		const peers = 6
		s, err := New(Config{Peers: peers, Shards: 2, QueueDepth: 6, MaxBatch: 5})
		if err != nil {
			t.Fatal(err)
		}
		var admitted [][]Event
		for try := 0; try < 2; try++ {
			before := s.Store().Stats().Pending
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body)))
			delta := s.Store().Stats().Pending - before
			switch rec.Code {
			case http.StatusAccepted:
				// The handler's own decoding: the first JSON value, the
				// rest of the body ignored.
				var req ingestRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					t.Fatalf("202 for a body that does not decode: %v", err)
				}
				var resp ingestResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Accepted != len(req.Events) || delta != int64(len(req.Events)) {
					t.Fatalf("202 accepting %d of %d events grew the backlog by %d", resp.Accepted, len(req.Events), delta)
				}
				admitted = append(admitted, req.Events)
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
				if delta != 0 {
					t.Fatalf("status %d grew the backlog by %d", rec.Code, delta)
				}
			default:
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		s.Store().Flush()
		got := []edgeJSON{}
		for _, e := range s.Store().AppendEdges(nil) {
			got = append(got, edgeJSON{From: e.From, To: e.To, W: e.W})
		}
		if want := replayDump(t, peers, admitted...); !reflect.DeepEqual(got, want) {
			t.Fatalf("store %+v, want the replay of the 202'd batches %+v", got, want)
		}
	})
}
