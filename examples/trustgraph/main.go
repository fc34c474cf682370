// Trustgraph: the reputation-propagation substrate the paper assumes to
// exist (Section I) made concrete. A network with an honest community and a
// colluding clique computes global trust with EigenTrust and subjective
// trust with MaxFlow, showing the collusion behavior Section II-C discusses;
// gossip dissemination is measured alongside.
package main

import (
	"fmt"
	"log"

	"collabnet/internal/reputation"
	"collabnet/internal/xrand"
)

func main() {
	const (
		honest    = 8 // peers 0..7 trade honestly
		colluders = 3 // peers 8..10 boost each other
		n         = honest + colluders
	)
	// The edge-log graph is the production trust store: writes append to a
	// log and a deterministic compaction folds them into a sorted adjacency.
	// Swapping in reputation.NewTrustGraph (the map-backed reference) gives
	// bit-identical results — the differential suite pins the two.
	g, err := reputation.NewLogGraph(n)
	if err != nil {
		log.Fatal(err)
	}
	rng := xrand.New(42)

	// Honest peers accumulate moderate pairwise trust from real exchanges.
	for i := 0; i < honest; i++ {
		for j := 0; j < honest; j++ {
			if i != j && rng.Bool(0.6) {
				g.AddTrust(i, j, 1+rng.Float64()*2)
			}
		}
	}
	// The clique self-promotes with enormous weights and one naive honest
	// peer (7) trusts a clique member slightly.
	for i := honest; i < n; i++ {
		for j := honest; j < n; j++ {
			if i != j {
				g.AddTrust(i, j, 500)
			}
		}
	}
	g.AddTrust(7, honest, 0.5)

	// EigenTrust with pre-trusted founders and damping.
	cfg := reputation.DefaultEigenTrust()
	cfg.PreTrusted = []int{0, 1}
	cfg.Damping = 0.15
	tv, err := reputation.EigenTrust(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EigenTrust global trust (pre-trusted founders 0,1, damping 0.15):")
	printTrust(tv, honest)

	// The same graph WITHOUT damping: the clique absorbs the walk.
	raw := reputation.EigenTrustConfig{Damping: 0, Epsilon: 1e-12, MaxIter: 2000}
	tvRaw, err := reputation.EigenTrust(g, raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEigenTrust with damping 0 (the Section II-C collusion attack):")
	printTrust(tvRaw, honest)

	// MaxFlow trust from peer 0's perspective: structurally immune — the
	// clique's internal trust cannot exceed the thin cut leading into it.
	mf, err := reputation.MaxFlowTrust(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMaxFlow trust as seen by peer 0:")
	printTrust(mf, honest)

	flow, err := reputation.MaxFlow(g, 0, honest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax flow 0 -> first colluder: %.2f (bounded by the honest cut, not the clique's 500s)\n", flow)

	// How fast does a reputation update spread? Push gossip, fanout 2.
	res, err := reputation.Spread(1000, 0, reputation.DefaultGossip(), rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngossip: a reputation update reached %d/1000 peers in %d rounds (%d messages, converged=%v)\n",
		res.Informed, res.Rounds, res.Messages, res.Converged)
	fmt.Printf("analytic estimate: ~%d rounds\n", reputation.AntiEntropyRounds(1000, 2))
}

func printTrust(tv []float64, honest int) {
	for i, v := range tv {
		tag := "honest"
		if i >= honest {
			tag = "COLLUDER"
		}
		fmt.Printf("  peer %2d (%-8s) %.4f %s\n", i, tag, v, bar(v))
	}
}

func bar(v float64) string {
	n := int(v * 200)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
