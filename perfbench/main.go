// Command perfbench is the repository's benchmark. It stands up a
// three-tier Scalla cluster over loopback TCP inside one process, drives
// one named workload against it, checks every byte and every answer,
// and prints every metric by name with its unit. The last line of its
// output is the result object; the line before it is the run's
// metadata. See README.md in this directory.
//
//	perfbench --workload meta-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"scalla/internal/client"
	"scalla/internal/pcache"
	"scalla/internal/transport"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scratch  string // where disk stores and trace files go
	commit   string
}

// A run sets its cluster up at least minSetups times and, while the
// set-ups together took less than setupTime, up to maxSetups times;
// setup_s is the median, and the last cluster set up is the one
// measured. Cheap set-ups repeat more, so their median is as steady as
// that of the expensive ones.
const (
	minSetups = 3
	maxSetups = 9
	setupTime = 6 * time.Second
)

// traceCapacity is the number of frames the traced run can log.
const traceCapacity = 1 << 21

// bench is one run: the cluster under test, the workload's files and
// the networks everything talks over.
type bench struct {
	cfg  config
	spec *spec

	tcp       *transport.TCPNet
	rec       *recorder // nil unless tracing
	daemonNet transport.Network
	clientNet transport.Network

	t       *tree
	proxy   *pcache.Proxy
	clients []*client.Client

	files         []file
	warmRefreshes atomic.Int64 // warm-up lookups that needed a refresh
	coldSeen      [2][]int     // cold-resolve: files the opener opened, per phase
	stalled       int          // cold-resolve: ops that outlasted stallAfter
	written       []int64      // stream-rw: bytes overwritten per writer file
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags() (config, error) {
	var c config
	var secs float64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: meta-hot, cold-resolve, stream-rw or edge-replay")
	flag.Int64Var(&c.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&secs, "seconds", 10, "length of each measured phase")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&c.scratch, "scratch", ".bench_build/perfbench/run", "directory for disk stores and trace output")
	flag.StringVar(&c.commit, "commit", "unknown", "commit of the sources, for the run metadata")
	flag.Parse()
	if secs <= 0 {
		return c, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return c, errors.New("--trace must be 0 or 1")
	}
	c.seconds = time.Duration(secs * float64(time.Second))
	c.trace = trace == 1
	return c, nil
}

func run() error {
	cfg, err := parseFlags()
	if err != nil {
		return err
	}
	sp, err := specByName(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	res := result{Metrics: map[string]metric{}}
	meta := newMeta(cfg, sp)

	var setups []float64
	var b *bench
	for total := 0.0; ; {
		if b != nil {
			b.tearDown()
		}
		t0 := time.Now()
		b, err = setUp(cfg, sp, len(setups))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		meta.WarmRefreshes = append(meta.WarmRefreshes, b.warmRefreshes.Load())
		total += setups[len(setups)-1]
		if len(setups) >= maxSetups || (len(setups) >= minSetups && total >= setupTime.Seconds()) {
			break
		}
	}
	defer b.tearDown()
	meta.SetupRuns = setups
	// Waiting for the warm-up's floods to expire is not set-up work: it
	// lasts one or two ticks of the fast-response clock, by the clock's
	// phase, so it is left out of setup_s.
	if err := b.quiesce(2 * time.Second); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	// Untraced phase: the end-to-end numbers and the per-layer counts.
	// The earlier set-ups' garbage is collected and its memory returned
	// first, so neither the phase's timings nor its resident set pay
	// for the set-ups.
	debug.FreeOSMemory()
	a0, cpu0 := b.snapshot(), hostCPU()
	g := b.startGauges(cfg.trace)
	ab := &abort{}
	perJob, elapsed, cold := sp.phase(b, 0, cfg.seconds, ab)
	st := mergeJobs(perJob)
	g.halt()
	a1 := b.snapshot()
	meta.HostStealPct = cpu0.stealPct(hostCPU())
	if ab.err != nil {
		return b.fail(&res, meta, st, ab.err)
	}
	if sp.finish != nil && !cfg.trace {
		if err := sp.finish(b); err != nil {
			return b.fail(&res, meta, st, err)
		}
	}
	res.Attempted, res.Failed = st.attempted, st.failed
	if res.Attempted == 0 {
		return errors.New("no operation attempted")
	}
	ops := st.attempted - st.failed
	// Rates count the configured window only: a job still finishing an
	// op past the deadline runs alone and would dilute them.
	window := min(elapsed, cfg.seconds)
	meta.Timings = map[string]summary{"open": st.open.summary(), "read": st.read.summary(),
		"op": st.opLat.summary()}
	meta.WriteMBps = float64(st.bytesWritten) / 1e6 / elapsed.Seconds()
	meta.Stalled = b.stalled

	if !cfg.trace {
		if g.maxRSS == 0 {
			return errors.New("resident set size unavailable: /proc/self/statm unreadable")
		}
		e2e := map[string]float64{
			"setup_s":       median(setups),
			"open_p50_us":   us(st.open.quantile(0.50)),
			"open_p90_us":   us(st.open.quantile(0.90)),
			"read_p90_us":   us(st.read.quantile(0.90)),
			"read_MBps":     st.perSecond(window, func(s secStat) float64 { return float64(s.bytesRead) / 1e6 }),
			"ops_s":         st.perSecond(window, func(s secStat) float64 { return float64(s.ops) }),
			"goodput_ops_s": st.perSecond(window, func(s secStat) float64 { return float64(s.good) }),
			"peak_rss_mb":   float64(g.maxRSS) / (1 << 20),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		layer := layerCounts(a0, a1, g, ops, cold)
		layer["bench.open_p99_us"] = us(slicedP99(perJob, func(s *jobStats) samples { return s.open }))
		layer["bench.read_p99_us"] = us(slicedP99(perJob, func(s *jobStats) samples { return s.read }))
		layer["bench.error_rate"] = float64(st.failed) / float64(st.attempted)
		layer["bench.write_MBps"] = meta.WriteMBps
		layer["bench.stalled_ops"] = float64(b.stalled)
		for _, n := range meta.WarmRefreshes {
			layer["cmsd.warm_absent"] += float64(n)
		}
		traced, err := b.tracedPhase(st, layer, meta)
		if err != nil {
			return b.fail(&res, meta, traced, err)
		}
		if sp.finish != nil {
			if err := sp.finish(b); err != nil {
				return b.fail(&res, meta, st, err)
			}
		}
		for _, pl := range perLayer {
			res.Metrics[pl.name] = metric{Value: layer[pl.name], Unit: pl.unit}
		}
	}
	res.Correct = true
	return emit(res, meta)
}

// setUp starts the cluster, places the workload's files and warms
// what a steady-state cluster would know. attempt numbers the repeats.
func setUp(cfg config, sp *spec, attempt int) (*bench, error) {
	b := &bench{cfg: cfg, spec: sp, tcp: transport.TCP()}
	b.daemonNet, b.clientNet = b.tcp, b.tcp
	if cfg.trace {
		b.rec = newRecorder()
		b.daemonNet = newTraceNet(b.tcp, b.rec, false)
		b.clientNet = newTraceNet(b.tcp, b.rec, true)
	}
	opts := treeOptions{net: b.daemonNet, seed: cfg.seed}
	if sp.disk {
		opts.diskRoot = filepath.Join(cfg.scratch, fmt.Sprintf("stores-%d-%d", os.Getpid(), attempt))
	}
	var err error
	// A reserved port is free again between its reservation and the
	// node binding it, and an outgoing connection may take it in
	// between; a fresh set of ports is then tried.
	for try := 0; ; try++ {
		if b.t, err = startTree(opts); err == nil {
			break
		}
		if try == 2 {
			return nil, err
		}
	}
	entry := []string{b.t.mgr.DataAddr()}
	if sp.proxy {
		addrs, err := reserveAddrs(1)
		if err != nil {
			b.tearDown()
			return nil, err
		}
		b.proxy = pcache.New(pcache.Config{Net: b.daemonNet, Addr: addrs[0], Origins: entry,
			CacheBytes: edgeFiles * edgeSize / 4, SchedSeed: cfg.seed})
		if err := b.proxy.Start(); err != nil {
			b.proxy = nil
			b.tearDown()
			return nil, err
		}
		b.t.roles[addrs[0]] = roleProxy
		entry = addrs
	}
	for i := range jobs {
		b.clients = append(b.clients, client.New(client.Config{Net: b.clientNet,
			Managers: entry, RetrySeed: cfg.seed + int64(i)}))
	}
	if err := sp.place(b); err != nil {
		b.tearDown()
		return nil, err
	}
	if err := sp.warm(b); err != nil {
		b.tearDown()
		return nil, err
	}
	return b, nil
}

// quiesce waits until no redirector holds a parked resolution: the
// floods of the warm-up expire at the supervisors that lack the file
// one fast window later, and must not land in the measured phase.
func (b *bench) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		parked := 0
		for _, n := range b.t.redirectors() {
			parked += n.Core().Queue().Depth()
		}
		if parked == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d resolutions still parked %v after warm-up", parked, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (b *bench) tearDown() {
	for _, cl := range b.clients {
		cl.Close()
	}
	if b.proxy != nil {
		b.proxy.Close()
	}
	if b.t != nil {
		b.t.stop()
	}
}

// fail reports a run whose outputs were wrong: the result says so and
// the command exits non-zero.
func (b *bench) fail(res *result, meta *runMeta, st jobStats, err error) error {
	res.Correct = false
	res.Attempted, res.Failed = max(st.attempted, 1), st.failed
	meta.Error = err.Error()
	if eerr := emit(*res, meta); eerr != nil {
		return eerr
	}
	return fmt.Errorf("incorrect output: %w", err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta describes the conditions of a run; it is printed as the line
// before the result.
type runMeta struct {
	Workload     string  `json:"workload"`
	Why          string  `json:"why"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Interconnect string  `json:"interconnect"`
	Topology     string  `json:"topology"`
	Load         string  `json:"load"`
	LimitMS      float64 `json:"latency_limit_ms"`
	Store        string  `json:"store_backend"`
	Fsync        string  `json:"fsync_policy,omitempty"`
	TempFS       string  `json:"temp_root_fs,omitempty"`
	// HostStealPct is the share of the host's CPU time the hypervisor
	// gave to other guests during the measured phase: the rates of a
	// shared host drift with it.
	HostStealPct float64   `json:"host_steal_pct"`
	SetupRuns    []float64 `json:"setup_runs_s"`
	// WarmRefreshes counts, per set-up, placed files the manager called
	// absent during warm-up until a refreshing lookup found them.
	WarmRefreshes []int64            `json:"warm_refreshes"`
	Timings       map[string]summary `json:"timings"`
	// Stalled counts measured ops a job stopped waiting for after
	// stallAfter; they still count, with their whole latency.
	Stalled   int        `json:"stalled_ops"`
	WriteMBps float64    `json:"write_MBps"`
	Traced    *traceMeta `json:"traced,omitempty"`
	Error     string     `json:"error,omitempty"`
}

func newMeta(cfg config, sp *spec) *runMeta {
	m := &runMeta{
		Workload: sp.name, Why: sp.why, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Trace: cfg.trace, Commit: cfg.commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Interconnect: "loopback TCP",
		Topology:     fmt.Sprintf("1 manager, %d supervisors, %d servers, fanout %d", supervisors, servers, fanout),
		Load:         fmt.Sprintf("closed loop, %d jobs, one client each", jobs),
		LimitMS:      float64(sp.limit) / float64(time.Millisecond), Store: "mem",
	}
	if sp.disk {
		m.Store, m.Fsync, m.TempFS = "disk", "interval", fsType(cfg.scratch)
	}
	return m
}

func emit(res result, meta *runMeta) error {
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return w.Flush()
}
