package experiments

import (
	"fmt"

	"scalla/internal/detsim"
)

// E23DepthScaling reproduces the structured-cluster scaling argument
// past one supervisor level. It stands up depth-3 through depth-5
// topologies (hundreds to thousands of simulated data servers over real
// cmsd cores) in the deterministic simulator and reports, per shape,
// the resolve cost the tree predicts: redirect hops bounded by the
// tree depth, messages per resolve bounded by the flood fan-out, and
// end-to-end latency as the per-hop delays compose. Latencies are
// simulated (1–10 ms per hop on the virtual clock), so the table's
// claims are about protocol structure, not host speed. A simulator
// invariant violation, a shape that completes nothing, or a walk longer
// than the depth is an ErrNote. Each shape runs
// on a fixed seed so the table is reproducible; the detsim sweeps own
// seed coverage.
func E23DepthScaling(s Scale) Table {
	t := Table{
		ID:     "E23",
		Title:  "resolve cost vs tree depth and width (deterministic simulator)",
		Claim:  "the tree structure bounds a walk at one redirect per redirector level, in any sized cluster (II-B1, III)",
		Header: []string{"servers", "fanout", "depth", "cores", "ops", "hop p50", "hop max", "msgs/op", "lat p50", "lat p99"},
	}
	type shape struct{ servers, fanout int }
	shapes := []shape{
		{1024, 64}, // depth-3 baseline: one supervisor level
		{512, 16},
		{1024, 16}, // depth-4: same servers as the baseline, fanout 16
		{4096, 16},
		{16384, 16}, // depth-5: fanout 16 needs a third supervisor level
	}
	if s.Quick {
		shapes = shapes[:3]
	}
	for _, sh := range shapes {
		res := detsim.Run(detsim.Config{
			Seed:    1,
			Servers: sh.servers,
			Fanout:  sh.fanout,
			Clients: 8, OpsPerClient: 8, Paths: 12,
		})
		if len(res.Violations) != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(ErrNote+"%d@%d: %v", sh.servers, sh.fanout, res.Violations))
			continue
		}
		if res.Ops == 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(ErrNote+"%d@%d completed no ops", sh.servers, sh.fanout))
			continue
		}
		if res.HopMax > res.Levels {
			t.Notes = append(t.Notes, fmt.Sprintf(ErrNote+"%d@%d: hop max %d past one redirect per redirector level (%d)",
				sh.servers, sh.fanout, res.HopMax, res.Levels))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(res.Servers), fmt.Sprint(sh.fanout), fmt.Sprint(res.Levels + 1),
			fmt.Sprint(res.Cores), fmt.Sprint(res.Ops),
			fmt.Sprint(res.HopP50), fmt.Sprint(res.HopMax),
			fmt.Sprintf("%.1f", float64(res.Queries+res.Haves)/float64(res.Ops)),
			fmtMs(res.LatP50), fmtMs(res.LatP99),
		})
	}
	t.Notes = append(t.Notes,
		"depth counts node levels, servers included; hop max = depth − 1 is one redirect per redirector level",
		"latencies are simulated 1–10 ms hops on the virtual clock: structure, not host speed")
	return t
}
