package main

import (
	"math/rand"
	"net/http"
	"time"

	"collabnet/internal/reputation"
	"collabnet/internal/serve"
)

// Freshness probe settings. The probe owns the last peer id as its source
// (no generated stream writes for it) and rotates over probeDsts edges, so
// each probe edge is reused only after its previous probe resolved.
const (
	probeDsts  = 64
	probeMean  = 10 * time.Millisecond // mean gap of the Poisson probe schedule
	probePoll  = 500 * time.Microsecond
	probeDrain = 3 * time.Second // how long a probe may stay unresolved after the phase
)

// probe measures event-to-visible freshness: it sets a probe edge over
// HTTP at due times drawn from a Poisson schedule, then polls the store
// in-process until a published epoch holds the new value (edge visible)
// and until a trust snapshot computed from such an epoch is published
// (trust visible). Freshness runs from the due time to trust visible.
type probe struct {
	cl    *client
	cg    *reputation.ConcurrentGraph
	src   int
	rng   *rand.Rand
	count int // probes sent so far (picks each one's unique weight)
	dst   int // the probe edge the next probe sets

	fresh, edgeVisible, trustLag, accept sample
	attempted, failed                    int
	events                               []serve.Event // accepted, in send order
}

func newProbe(cl *client, cg *reputation.ConcurrentGraph, peers int, seed int64) *probe {
	return &probe{cl: cl, cg: cg, src: peers - 1, rng: rand.New(rand.NewSource(seed))}
}

// pending is one probe waiting to become visible.
type pending struct {
	dst           int
	w             float64
	due, accepted time.Time
	seq           uint64    // first epoch seen holding the value (0 = not yet)
	edgeAt        time.Time // when that epoch was seen
}

// send sets the probe edge to dst and returns the probe's weight and
// whether the server accepted it.
func (p *probe) send(dst int) (float64, bool) {
	// Weights cycle through 9000 distinct values in [1,10); an edge is
	// reused every probeDsts probes, so its value always changes.
	w := 1 + float64(p.count%9000)/1000
	p.count++
	ev := []serve.Event{{Type: serve.EventTrust, From: p.src, To: dst, W: w, Set: true}}
	p.attempted++
	status, err := p.cl.ingest(ev)
	if err != nil || status != http.StatusAccepted {
		p.failed++
		return w, false
	}
	p.events = append(p.events, ev...)
	return w, true
}

// seedEdges creates every probe edge once (set-up), so later probes only
// re-rate existing edges and never change the sparsity pattern.
func (p *probe) seedEdges() bool {
	for d := 0; d < probeDsts; d++ {
		if _, ok := p.send(d); !ok {
			return false
		}
	}
	return true
}

// run probes from start until end, then waits (up to probeDrain) for the
// outstanding probes to resolve; unresolved probes count as failed.
func (p *probe) run(start, end time.Time) {
	tr := p.cl.tr
	next := start.Add(p.gap())
	var out []*pending
	busy := make([]bool, probeDsts)
	for {
		now := time.Now()
		if now.After(end.Add(probeDrain)) {
			for range out { // never became visible: a failed probe
				p.failed++
				p.fresh.fail()
			}
			return
		}
		if next.Before(end) && !now.Before(next) {
			if dst := p.dst; !busy[dst] {
				due := next
				w, ok := p.send(dst)
				if ok {
					busy[dst] = true
					out = append(out, &pending{dst: dst, w: w, due: due, accepted: time.Now()})
				} else {
					p.fresh.fail()
				}
				p.dst = (dst + 1) % probeDsts
			}
			next = next.Add(p.gap())
			continue
		}
		if !next.Before(end) && len(out) == 0 {
			return
		}
		if len(out) > 0 {
			e := p.cg.Acquire()
			for _, q := range out {
				if q.seq == 0 && e.Trust(p.src, q.dst) == q.w {
					q.seq, q.edgeAt = e.Seq(), now
				}
			}
			e.Release()
			snap := p.cg.TrustSnapshot()
			kept := out[:0]
			for _, q := range out {
				if q.seq == 0 || snap == nil || snap.Seq < q.seq {
					kept = append(kept, q)
					continue
				}
				busy[q.dst] = false
				p.fresh.add(now.Sub(q.due))
				p.accept.add(q.accepted.Sub(q.due))
				p.edgeVisible.add(q.edgeAt.Sub(q.accepted))
				p.trustLag.add(now.Sub(q.edgeAt))
				if tr != nil {
					id := tr.id()
					tr.record(id, 0, "probe", "", q.due, now)
					tr.record(tr.id(), id, "probe.edge_visible", "", q.accepted, q.edgeAt)
					tr.record(tr.id(), id, "probe.trust_visible", "", q.edgeAt, now)
				}
			}
			out = kept
		}
		wait := probePoll
		if d := time.Until(next); next.Before(end) && d < wait {
			wait = d
		}
		sleepUntil(now.Add(wait))
	}
}

// gap draws the next exponential inter-probe gap. Poisson arrivals sample
// every phase of the server's refresh cycle evenly, so the freshness
// distribution does not depend on where the ticker happened to start.
func (p *probe) gap() time.Duration {
	return time.Duration(p.rng.ExpFloat64() * float64(probeMean))
}
