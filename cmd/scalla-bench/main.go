// scalla-bench regenerates the paper's quantitative claims as tables.
//
// Usage:
//
//	scalla-bench                 # run every experiment at full scale
//	scalla-bench -quick          # smaller sizes, a few seconds each
//	scalla-bench -run E4,E7      # selected experiments
//	scalla-bench -list           # list experiment ids and claims
//	scalla-bench -figure2        # render the paper's Figure 2
//
// It exits 1 when a table reports a failed run (an experiments.ErrNote
// note), as E22 does for a broken scheduler bound and E23 for a broken
// simulator invariant.
//
// The per-experiment mapping to the paper's sections lives in DESIGN.md;
// measured-vs-paper results are recorded in EXPERIMENTS.md. End-to-end
// latency and throughput over a real tree are measured by perfbench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/experiments"
	"scalla/internal/vclock"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	fig2 := flag.Bool("figure2", false, "render the paper's Figure 2 (hash table + eviction windows) from a live cache")
	flag.Parse()

	if *fig2 {
		renderFigure2()
		return
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, experiments.Describe(id))
		}
		return
	}

	scale := experiments.Scale{Quick: *quick}
	var ids []string
	if *run == "" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*run, ",")
	}
	failed := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fn := experiments.ByID(id)
		if fn == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		t := fn(scale)
		fmt.Println(t)
		failed = failed || len(t.Failures()) > 0
	}
	if failed {
		fmt.Fprintln(os.Stderr, "scalla-bench: a run broke a bound or failed (see the \"note: error:\" lines)")
		os.Exit(1)
	}
}

// renderFigure2 populates a cache with a varying per-window load, ticks
// the clock, and prints the structure — the runnable Figure 2.
func renderFigure2() {
	c := cache.New(cache.Config{SyncSweep: true, Clock: vclock.NewFake()})
	id := 0
	for w := 0; w < cache.Windows; w++ {
		// Diurnal-ish load: more objects created in "busy" windows.
		n := 200 + 150*(w%8)
		for k := 0; k < n; k++ {
			c.Add(fmt.Sprintf("/store/fig2/w%02d/f%06d", w, id), bitvec.Full, 0)
			id++
		}
		c.Tick()
	}
	fmt.Print(c.Dump(70))
}
