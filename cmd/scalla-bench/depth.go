package main

// The -depth4 mode: the tree-scaling table. It stands up depth-3
// through depth-5 topologies (hundreds to thousands of simulated data
// servers over real cmsd cores) in the deterministic simulator and
// reports, per shape, the resolve cost the paper's structured-cluster
// argument predicts: hop counts bounded by the tree depth, messages per
// resolve bounded by the flood fan-out, and end-to-end latency as the
// per-hop delays compose. Latencies are simulated (1–10 ms per hop on
// the virtual clock), so the table's claims are about protocol
// structure, not host speed.

import (
	"fmt"
	"time"

	"scalla/internal/detsim"
)

// depthRow is one tree shape's scaling summary.
type depthRow struct {
	Servers   int
	Fanout    int
	Depth     int // tree depth in node levels, servers included
	Cores     int // redirector cores stood up
	Ops       int
	HopP50    int
	HopMax    int
	MsgsPerOp float64 // (queries + haves) per completed resolve
	LatP50    time.Duration
	LatP99    time.Duration
}

// runDepth4 executes the scaling sweep. Each shape runs on a fixed seed
// so the table is reproducible; the detsim sweep owns seed coverage.
func runDepth4(quick bool) ([]depthRow, error) {
	type shape struct{ servers, fanout int }
	shapes := []shape{
		{1024, 64}, // depth-3 baseline: one supervisor level
		{512, 16},
		{1024, 16}, // depth-4: same servers as the baseline, fanout 16
		{4096, 16},
		{16384, 16}, // depth-5: fanout 16 needs a third supervisor level
	}
	if quick {
		shapes = shapes[:3]
	}
	rows := make([]depthRow, 0, len(shapes))
	for _, sh := range shapes {
		res := detsim.Run(detsim.Config{
			Seed:    1,
			Servers: sh.servers,
			Fanout:  sh.fanout,
			Clients: 8, OpsPerClient: 8, Paths: 12,
		})
		if len(res.Violations) != 0 {
			return rows, fmt.Errorf("depth sweep %d@%d: %v", sh.servers, sh.fanout, res.Violations)
		}
		if res.Ops == 0 {
			return rows, fmt.Errorf("depth sweep %d@%d completed no ops", sh.servers, sh.fanout)
		}
		rows = append(rows, depthRow{
			Servers:   res.Servers,
			Fanout:    sh.fanout,
			Depth:     res.Levels + 1,
			Cores:     res.Cores,
			Ops:       res.Ops,
			HopP50:    res.HopP50,
			HopMax:    res.HopMax,
			MsgsPerOp: float64(res.Queries+res.Haves) / float64(res.Ops),
			LatP50:    res.LatP50,
			LatP99:    res.LatP99,
		})
	}
	return rows, nil
}

func printDepth4(rows []depthRow) {
	fmt.Printf("%-8s %-7s %-6s %-6s %-5s %-8s %-8s %-10s %-10s %s\n",
		"servers", "fanout", "depth", "cores", "ops", "hop p50", "hop max", "msgs/op", "lat p50", "lat p99")
	for _, r := range rows {
		fmt.Printf("%-8d %-7d %-6d %-6d %-5d %-8d %-8d %-10.1f %-10s %s\n",
			r.Servers, r.Fanout, r.Depth, r.Cores, r.Ops, r.HopP50, r.HopMax,
			r.MsgsPerOp, r.LatP50.Round(time.Microsecond), r.LatP99.Round(time.Microsecond))
	}
}
