package sim

import (
	"reflect"
	"testing"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
	"collabnet/internal/xrand"
)

// TestResetPeerSurgical is the identity-churn differential: after running a
// warm engine and resetting a randomly chosen victim, the victim's per-peer
// state must equal a from-scratch engine's, while every survivor's state —
// scheme sections, Q-matrices, trust edges not touching the victim,
// transfers, articles, the RNG stream — is held bit-for-bit. Repeated over
// random victims and step counts for every scheme kind.
func TestResetPeerSurgical(t *testing.T) {
	for _, kind := range allSchemeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := snapshotTestConfig(kind)
			cfg.MeasureSteps = 1
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			freshSnap := fresh.Snapshot(nil)

			rng := xrand.New(99)
			for iter := 0; iter < 5; iter++ {
				steps := 20 + int(rng.Uint64()%30)
				for i := 0; i < steps; i++ {
					eng.StepOnce(1, true)
				}
				victim := int(rng.Uint64() % uint64(cfg.Peers))
				pre := eng.Snapshot(nil)
				if err := eng.ResetPeer(victim); err != nil {
					t.Fatal(err)
				}
				post := eng.Snapshot(nil)
				checkSurgical(t, kind, pre, post, freshSnap, victim)
				if t.Failed() {
					t.Fatalf("iteration %d, victim %d", iter, victim)
				}
			}
		})
	}
}

// checkSurgical verifies one reset against the pre/post/fresh snapshots.
func checkSurgical(t *testing.T, kind incentive.Kind, pre, post, fresh *EngineSnapshot, victim int) {
	t.Helper()

	// Engine-level invariants: no randomness consumed, community untouched,
	// victim back online, survivors' online state held.
	if post.Rng != pre.Rng {
		t.Error("ResetPeer consumed randomness")
	}
	if post.Step != pre.Step {
		t.Error("ResetPeer advanced the step counter")
	}
	if !reflect.DeepEqual(post.Store, pre.Store) {
		t.Error("ResetPeer touched the article community")
	}
	if !post.Online[victim] {
		t.Error("victim should come back online")
	}
	for q := range post.Online {
		if q != victim && post.Online[q] != pre.Online[q] {
			t.Errorf("survivor %d online state changed", q)
		}
	}

	// Agents: victim's learners zeroed to the fresh state, survivors held.
	if !reflect.DeepEqual(post.Agents[victim], fresh.Agents[victim]) {
		t.Error("victim's learners differ from a fresh engine's")
	}
	for q := range post.Agents {
		if q != victim && !reflect.DeepEqual(post.Agents[q], pre.Agents[q]) {
			t.Errorf("survivor %d learner state changed", q)
		}
	}

	// Transfers: everything touching the victim cancelled, the rest held in
	// order.
	var kept []struct{ d, s int }
	for _, tr := range pre.Transfers.Transfers {
		if tr.Downloader != victim && tr.Source != victim {
			kept = append(kept, struct{ d, s int }{tr.Downloader, tr.Source})
		}
	}
	var got []struct{ d, s int }
	for _, tr := range post.Transfers.Transfers {
		if tr.Downloader == victim || tr.Source == victim {
			t.Errorf("transfer %d↔%d survived the victim's reset", tr.Downloader, tr.Source)
		}
		got = append(got, struct{ d, s int }{tr.Downloader, tr.Source})
	}
	if !reflect.DeepEqual(kept, got) {
		t.Error("survivors' transfers not held across the reset")
	}

	// Scheme sections.
	switch kind {
	case incentive.KindNone, incentive.KindReputation:
		rs, prs, frs := &post.Scheme.Reputation, &pre.Scheme.Reputation, &fresh.Scheme.Reputation
		if !reflect.DeepEqual(rs.Ledgers[victim], frs.Ledgers[victim]) {
			t.Error("victim's ledger differs from a fresh engine's")
		}
		if rs.ShareArticles[victim] != 0 || rs.ShareBW[victim] != 0 ||
			rs.SuccVotes[victim] != 0 || rs.AccEdits[victim] != 0 {
			t.Error("victim's accumulators not zeroed")
		}
		for q := range rs.Ledgers {
			if q == victim {
				continue
			}
			if !reflect.DeepEqual(rs.Ledgers[q], prs.Ledgers[q]) ||
				rs.ShareArticles[q] != prs.ShareArticles[q] ||
				rs.ShareBW[q] != prs.ShareBW[q] ||
				rs.SuccVotes[q] != prs.SuccVotes[q] ||
				rs.AccEdits[q] != prs.AccEdits[q] {
				t.Errorf("survivor %d reputation state changed", q)
			}
		}
	case incentive.KindKarma:
		ks, pks, fks := post.Scheme.Karma, pre.Scheme.Karma, fresh.Scheme.Karma
		if ks.Balances[victim] != fks.Balances[victim] {
			t.Errorf("victim's balance %v, fresh engine grants %v",
				ks.Balances[victim], fks.Balances[victim])
		}
		for q := range ks.Balances {
			if q != victim && ks.Balances[q] != pks.Balances[q] {
				t.Errorf("survivor %d balance changed", q)
			}
		}
	case incentive.KindTitForTat:
		ts, pts := &post.Scheme.TitForTat, &pre.Scheme.TitForTat
		if !reflect.DeepEqual(filterEdges(pts.Given, victim), ts.Given) {
			t.Error("tit-for-tat rows not surgically cleared")
		}
		if ts.ShareArts[victim] != 0 || ts.ShareBW[victim] != 0 || ts.Uploaded[victim] != 0 {
			t.Error("victim's tit-for-tat accumulators not zeroed")
		}
		for q := range ts.ShareArts {
			if q != victim && (ts.ShareArts[q] != pts.ShareArts[q] ||
				ts.ShareBW[q] != pts.ShareBW[q] || ts.Uploaded[q] != pts.Uploaded[q]) {
				t.Errorf("survivor %d tit-for-tat accumulators changed", q)
			}
		}
	case incentive.KindEigenTrust, incentive.KindMaxFlow:
		if !reflect.DeepEqual(filterEdges(pre.Scheme.GraphTrust.Edges, victim),
			post.Scheme.GraphTrust.Edges) {
			t.Error("trust graph not surgically cleared")
		}
	}
}

// filterEdges drops every edge touching peer, preserving order.
func filterEdges(edges []reputation.Edge, peer int) []reputation.Edge {
	out := []reputation.Edge{}
	for _, e := range edges {
		if e.From != peer && e.To != peer {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestResetPeerAllocationFree pins the churn path's allocation discipline:
// on the dense in-place schemes a warm engine's ResetPeer allocates nothing,
// and on every scheme the step loop stays (amortized) allocation-free while
// identities churn through it.
func TestResetPeerAllocationFree(t *testing.T) {
	inPlace := map[incentive.Kind]bool{
		incentive.KindNone: true, incentive.KindReputation: true,
		incentive.KindKarma: true, incentive.KindTitForTat: true,
	}
	for _, kind := range allSchemeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := snapshotTestConfig(kind)
			cfg.ChurnProb = 0
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				eng.StepOnce(1, true)
			}
			victim := 0
			if inPlace[kind] {
				allocs := testing.AllocsPerRun(100, func() {
					if err := eng.ResetPeer(victim); err != nil {
						t.Fatal(err)
					}
					victim = (victim + 1) % cfg.Peers
				})
				if allocs != 0 {
					t.Errorf("%s: ResetPeer allocates %v times, want 0", kind, allocs)
				}
			}
			// The step loop must stay allocation-free with churn in it.
			step := 0
			allocs := testing.AllocsPerRun(100, func() {
				if step%10 == 0 {
					if err := eng.ResetPeer(victim); err != nil {
						t.Fatal(err)
					}
					victim = (victim + 1) % cfg.Peers
				}
				eng.StepOnce(1, true)
				step++
			})
			if allocs > 1 {
				t.Errorf("%s: churning step loop allocates %v times per step, want <= 1", kind, allocs)
			}
		})
	}
}

// TestResetPeerRejectsBadSlot pins the range check.
func TestResetPeerRejectsBadSlot(t *testing.T) {
	cfg := snapshotTestConfig(incentive.KindReputation)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ResetPeer(-1); err == nil {
		t.Error("negative slot should be rejected")
	}
	if err := eng.ResetPeer(cfg.Peers); err == nil {
		t.Error("out-of-range slot should be rejected")
	}
}

// TestChurnedEngineSerialParallelIdentity runs a churn-heavy, zipf-skewed
// configuration as independent jobs on 1 and 4 workers: results must be
// bit-identical — the worker-count independence the scenario suite builds
// on, now exercised with identity churn in the loop.
func TestChurnedEngineSerialParallelIdentity(t *testing.T) {
	mk := func() []Job {
		var jobs []Job
		for i, kind := range allSchemeKinds {
			cfg := snapshotTestConfig(kind)
			cfg.TrainSteps = 120
			cfg.MeasureSteps = 80
			cfg.ZipfExponent = 1.1
			cfg.Seed = uint64(1000 + i)
			churn := i // capture: reset a rotating victim every 9 steps
			jobs = append(jobs, Job{
				Name:   kind.String(),
				Config: cfg,
				Setup: func(e *Engine) error {
					e.SetStepHook(func(e *Engine) {
						if e.StepIndex()%9 == 0 {
							if err := e.ResetPeer((e.StepIndex()/9 + churn) % cfg.Peers); err != nil {
								panic(err)
							}
						}
					})
					return nil
				},
			})
		}
		return jobs
	}
	serial := RunJobs(mk(), 1)
	parallel := RunJobs(mk(), 4)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("worker count changed churned results")
	}
}
