// Chain checkpoints: each warm-start chain's completed results and carry
// snapshot, persisted through the shared codec envelope (internal/codec) so
// paper-scale warm chains survive process restarts. This file holds the
// engine's section layouts; the scheme-state section is incentive.State's.
package sim

import (
	"fmt"
	"path/filepath"

	"collabnet/internal/agent"
	"collabnet/internal/articles"
	"collabnet/internal/codec"
	"collabnet/internal/network"
)

// Version 3 is the first in the codec envelope (checksummed, counts bounded
// by the file); older checkpoints fail to load, so their chains start cold.
const (
	ckptMagic   = "CNCHKP1\n"
	ckptVersion = 3
)

// --- section codecs ---

func encodeQ(e *codec.Encoder, q *agent.QSnapshot) {
	e.Int(q.States)
	e.Int(q.Actions)
	e.F64(q.Alpha)
	e.F64(q.Gamma)
	e.Floats(q.Q)
}

func decodeQ(d *codec.Decoder, q *agent.QSnapshot) {
	q.States = d.Int()
	q.Actions = d.Int()
	q.Alpha = d.F64()
	q.Gamma = d.F64()
	q.Q = d.Floats(q.Q)
}

func encodeAgents(e *codec.Encoder, agents []agent.Snapshot) {
	e.Int(len(agents))
	for k := range agents {
		a := &agents[k]
		e.Int(int(a.Behavior))
		e.Bool(a.Rational)
		if a.Rational {
			encodeQ(e, &a.Sharing)
			encodeQ(e, &a.EditConduct)
			encodeQ(e, &a.VoteConduct)
		}
	}
}

func decodeAgents(d *codec.Decoder, dst []agent.Snapshot) []agent.Snapshot {
	dst = codec.Resize(dst, d.Len(2*8)) // a non-rational agent is two words
	for k := range dst {
		a := &dst[k]
		a.Behavior = agent.Behavior(d.Int())
		a.Rational = d.Bool()
		if a.Rational {
			decodeQ(d, &a.Sharing)
			decodeQ(d, &a.EditConduct)
			decodeQ(d, &a.VoteConduct)
		} else {
			a.Sharing = agent.QSnapshot{}
			a.EditConduct = agent.QSnapshot{}
			a.VoteConduct = agent.QSnapshot{}
		}
	}
	return dst
}

func encodeStore(e *codec.Encoder, s *articles.StoreSnapshot) {
	e.Int(s.RevisionCap)
	e.Int(len(s.Articles))
	for k := range s.Articles {
		a := &s.Articles[k]
		e.Int(a.ID)
		e.Text(a.Title)
		e.Int(a.Creator)
		e.Int(a.CreatedAt)
		e.Int(len(a.Revisions))
		for _, r := range a.Revisions {
			e.Int(r.Editor)
			e.Int(int(r.Quality))
			e.Int(r.Step)
		}
		e.Ints(a.Editors)
		e.Int(a.TotalRevs)
		e.Int(a.TotalGood)
		e.Int(a.TotalBad)
	}
}

func decodeStore(d *codec.Decoder, s *articles.StoreSnapshot) {
	s.RevisionCap = d.Int()
	// An article is at least nine words: an empty title, no revisions, no editors.
	s.Articles = codec.Resize(s.Articles, d.Len(9*8))
	for k := range s.Articles {
		a := &s.Articles[k]
		a.ID = d.Int()
		a.Title = d.Text()
		a.Creator = d.Int()
		a.CreatedAt = d.Int()
		a.Revisions = codec.Resize(a.Revisions, d.Len(3*8))
		for j := range a.Revisions {
			a.Revisions[j] = articles.Revision{Editor: d.Int(), Quality: articles.Quality(d.Int()), Step: d.Int()}
		}
		a.Editors = d.Ints(a.Editors)
		a.TotalRevs = d.Int()
		a.TotalGood = d.Int()
		a.TotalBad = d.Int()
	}
}

func encodeTransfers(e *codec.Encoder, t *network.TransferSnapshot) {
	e.F64(t.FileSize)
	e.Int(t.NextID)
	e.Int(t.Step)
	e.Int(t.PeerBound)
	e.Int(len(t.Transfers))
	for _, tr := range t.Transfers {
		e.Int(tr.ID)
		e.Int(tr.Downloader)
		e.Int(tr.Source)
		e.F64(tr.Remaining)
		e.Int(tr.StartStep)
	}
}

func decodeTransfers(d *codec.Decoder, t *network.TransferSnapshot) {
	t.FileSize = d.F64()
	t.NextID = d.Int()
	t.Step = d.Int()
	t.PeerBound = d.Int()
	t.Transfers = codec.Resize(t.Transfers, d.Len(5*8))
	for k := range t.Transfers {
		t.Transfers[k] = network.Transfer{
			ID:         d.Int(),
			Downloader: d.Int(),
			Source:     d.Int(),
			Remaining:  d.F64(),
			StartStep:  d.Int(),
		}
	}
}

// encode writes every field of the snapshot in declaration order; the
// encoding is a pure function of the snapshot's content.
func (s *EngineSnapshot) encode(e *codec.Encoder) error {
	e.Int(s.Step)
	for _, w := range s.Rng {
		e.U64(w)
	}
	e.Bools(s.Online)
	encodeAgents(e, s.Agents)
	if err := s.Scheme.Encode(e); err != nil {
		return err
	}
	encodeStore(e, &s.Store)
	encodeTransfers(e, &s.Transfers)
	return nil
}

// decode is the inverse of encode and reproduces every field
// bit-identically. The snapshot's slice buffers are reused where capacity
// allows; scheme sections the stored kind does not own are left untouched
// (the same reuse caveat EngineSnapshot documents).
func (s *EngineSnapshot) decode(d *codec.Decoder) error {
	s.Step = d.Int()
	for k := range s.Rng {
		s.Rng[k] = d.U64()
	}
	s.Online = d.Bools(s.Online)
	s.Agents = decodeAgents(d, s.Agents)
	if err := s.Scheme.Decode(d); err != nil {
		return err
	}
	decodeStore(d, &s.Store)
	decodeTransfers(d, &s.Transfers)
	return d.Err()
}

// --- Result codec (chain checkpoints reuse stored per-point results) ---

func encodeResult(e *codec.Encoder, r *Result) {
	e.Text(r.Scheme)
	e.Int(r.Steps)
	e.Int(r.Peers)
	e.F64(r.SharedArticles)
	e.F64(r.SharedBandwidth)
	e.Int(len(r.PerBehavior))
	for beh := agent.Behavior(0); int(beh) < numBehaviors; beh++ {
		s, ok := r.PerBehavior[beh]
		if !ok {
			continue
		}
		e.Int(int(beh))
		e.Int(s.Peers)
		e.F64(s.SharedArticles)
		e.F64(s.SharedBandwidth)
		e.Int(s.ConstructiveEdits)
		e.Int(s.DestructiveEdits)
		e.Int(s.AcceptedEdits)
		e.Int(s.SuccessfulVotes)
		e.Int(s.FailedVotes)
		e.F64(s.MeanUtilityS)
		e.Int(s.DownloadAttempts)
		e.Int(s.Downloads)
	}
	e.Int(r.AcceptedGood)
	e.Int(r.AcceptedBad)
	e.Int(r.DeclinedGood)
	e.Int(r.DeclinedBad)
	e.Int(r.Downloads)
	e.F64(r.MeanDownloadTime)
	e.Int(r.VoteBans)
	e.Int(r.Punishments)
}

func decodeResult(d *codec.Decoder, r *Result) {
	r.Scheme = d.Text()
	r.Steps = d.Int()
	r.Peers = d.Int()
	r.SharedArticles = d.F64()
	r.SharedBandwidth = d.F64()
	nb := d.Len(12 * 8)
	if nb > numBehaviors {
		d.Fail(fmt.Errorf("sim: checkpoint result has %d behaviors", nb))
		return
	}
	r.PerBehavior = make(map[agent.Behavior]BehaviorStats, nb)
	for k := 0; k < nb; k++ {
		beh := agent.Behavior(d.Int())
		r.PerBehavior[beh] = BehaviorStats{
			Peers:             d.Int(),
			SharedArticles:    d.F64(),
			SharedBandwidth:   d.F64(),
			ConstructiveEdits: d.Int(),
			DestructiveEdits:  d.Int(),
			AcceptedEdits:     d.Int(),
			SuccessfulVotes:   d.Int(),
			FailedVotes:       d.Int(),
			MeanUtilityS:      d.F64(),
			DownloadAttempts:  d.Int(),
			Downloads:         d.Int(),
		}
	}
	r.AcceptedGood = d.Int()
	r.AcceptedBad = d.Int()
	r.DeclinedGood = d.Int()
	r.DeclinedBad = d.Int()
	r.Downloads = d.Int()
	r.MeanDownloadTime = d.F64()
	r.VoteBans = d.Int()
	r.Punishments = d.Int()
}

// --- chain checkpoints ---

// chainCheckpoint is the resume state of one warm-start chain: the results
// of the completed points and the post-training snapshot the next point
// restores from. Cold chains store an empty snapshot (their points are
// independent; resuming just skips the completed ones).
type chainCheckpoint struct {
	Name string
	Done []Result
	Snap EngineSnapshot
}

func (c *chainCheckpoint) encode(e *codec.Encoder) error {
	e.Text(c.Name)
	e.Int(len(c.Done))
	for k := range c.Done {
		encodeResult(e, &c.Done[k])
	}
	return c.Snap.encode(e)
}

func (c *chainCheckpoint) decode(d *codec.Decoder) error {
	c.Name = d.Text()
	// A result is at least 14 words: an empty scheme name, no behaviors.
	c.Done = make([]Result, d.Len(14*8))
	for k := range c.Done {
		decodeResult(d, &c.Done[k])
	}
	return c.Snap.decode(d)
}

// checkpointPath maps a chain name to its file under dir, replacing
// path-hostile runes.
func checkpointPath(dir, name string) string {
	safe := make([]byte, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			safe = append(safe, byte(r))
		default:
			safe = append(safe, '-')
		}
	}
	return filepath.Join(dir, string(safe)+".ckpt")
}

// writeChainCheckpoint atomically persists the chain's resume state.
func writeChainCheckpoint(dir string, c *chainCheckpoint) error {
	return codec.WriteFile(checkpointPath(dir, c.Name), ckptMagic, ckptVersion, c.encode)
}

// loadChainCheckpoint loads the chain's resume state. It reports false —
// never an error — when no usable checkpoint exists (missing file, wrong
// name, more points than the chain now has, an older format version, or any
// decode or checksum failure), so a stale or corrupt checkpoint degrades to
// a cold start of the chain.
func loadChainCheckpoint(dir, name string, maxPoints int) (*chainCheckpoint, bool) {
	c := &chainCheckpoint{}
	err := codec.ReadFile(checkpointPath(dir, name), ckptMagic, ckptVersion, c.decode)
	if err != nil || c.Name != name || len(c.Done) > maxPoints {
		return nil, false
	}
	return c, true
}
