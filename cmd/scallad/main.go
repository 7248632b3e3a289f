// scallad runs one Scalla node — the paper's xrootd+cmsd pair — over
// TCP. A cluster is assembled by starting one manager and pointing
// servers (and optional supervisors) at its control port.
//
// Manager:
//
//	scallad -role manager -name mgr -data :1094 -ctl :1213
//
// Supervisor:
//
//	scallad -role supervisor -name sup1 -data :2094 -ctl :2213 \
//	        -parents mgrhost:1213
//
// Server exporting /store, preloading files from a directory:
//
//	scallad -role server -name srv1 -data :3094 \
//	        -parents mgrhost:1213 -exports /store -preload ./data
//
// Observability: -admin serves /statusz, /metricsz, and /tracez over
// HTTP; -summary streams one JSON summary frame per -summary-every to a
// UDP/TCP collector (tail it with `scalla-cli mon`); -trace N enables
// request tracing into a ring of N spans:
//
//	scallad -role manager -name mgr -data :1094 -ctl :1213 \
//	        -admin :8081 -summary udp:mon-host:9931 -trace 512
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"scalla/internal/cmdutil"
	"scalla/internal/cmsd"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

func main() {
	role := flag.String("role", "server", "manager | supervisor | server")
	name := flag.String("name", "", "stable node identity (required)")
	data := flag.String("data", ":1094", "data-plane listen address")
	ctl := flag.String("ctl", "", "control-plane listen address (manager/supervisor)")
	parents := flag.String("parents", "", "comma-separated parent control addresses")
	exports := flag.String("exports", "/", "comma-separated exported path prefixes")
	preload := flag.String("preload", "", "directory whose files seed the store (server role)")
	readOnly := flag.Bool("readonly", false, "refuse writes (server role)")
	fullDelay := flag.Duration("full-delay", 5*time.Second, "full delay (paper default 5s)")
	fastPeriod := flag.Duration("fast-period", 133*time.Millisecond, "fast response window")
	lifetime := flag.Duration("lifetime", 8*time.Hour, "location object lifetime Lt")
	stageDelay := flag.Duration("stage-delay", 2*time.Second, "simulated MSS staging delay")
	storeRoot := flag.String("store-root", "", "disk-backed store root directory (server role; empty = in-memory)")
	mssDir := flag.String("mss-dir", "", "MSS staging directory (default <store-root>.mss)")
	fsync := flag.String("fsync", "interval", "disk fsync policy: never | interval | always (see STORAGE.md)")
	fsyncEvery := flag.Duration("fsync-every", time.Second, "flush period for -fsync=interval")
	admin := flag.String("admin", "", "admin/status HTTP address serving /statusz /metricsz /tracez")
	summary := flag.String("summary", "", "summary-stream target: udp:host:port, tcp:host:port, or - for stdout")
	summaryEvery := flag.Duration("summary-every", 10*time.Second, "summary frame period")
	traceCap := flag.Int("trace", 0, "enable request tracing with a ring of this many spans")
	verbose := flag.Bool("v", false, "log diagnostics")
	flag.Parse()

	if *name == "" {
		log.Fatal("scallad: -name is required")
	}
	var r proto.Role
	switch *role {
	case "manager":
		r = proto.RoleManager
	case "supervisor":
		r = proto.RoleSupervisor
	case "server":
		r = proto.RoleServer
	default:
		log.Fatalf("scallad: unknown role %q", *role)
	}

	cfg := cmsd.NodeConfig{
		Name: *name, Role: r,
		DataAddr: *data, CtlAddr: *ctl,
		Prefixes: cmdutil.SplitList(*exports),
		// Counted so the summary stream carries the node's frame/byte
		// totals (the transport section of each frame).
		Net:      transport.Counting(transport.TCP()),
		ReadOnly: *readOnly,
	}
	if *traceCap > 0 {
		cfg.Tracer = obs.NewTracer(*traceCap, nil)
		cfg.Tracer.SetEnabled(true)
	}
	if *summary != "" {
		sink, err := cmdutil.ParseSink(*summary)
		if err != nil {
			log.Fatalf("scallad: %v", err)
		}
		cfg.Summary = sink
		cfg.SummaryEvery = *summaryEvery
	}
	if *parents != "" {
		cfg.Parents = cmdutil.SplitList(*parents)
	}
	if r != proto.RoleServer {
		cfg.Core = cmsd.Config{FullDelay: *fullDelay}
		cfg.Core.Queue.Period = *fastPeriod
		cfg.Core.Cache.Lifetime = *lifetime
		if cfg.CtlAddr == "" {
			log.Fatal("scallad: redirector roles require -ctl")
		}
	} else {
		st, err := store.Open(store.Config{
			Root:       *storeRoot,
			MSSDir:     *mssDir,
			Fsync:      store.FsyncPolicy(*fsync),
			FsyncEvery: *fsyncEvery,
			StageDelay: *stageDelay,
		})
		if err != nil {
			log.Fatalf("scallad: open store: %v", err)
		}
		defer st.Close()
		if *preload != "" {
			if err := loadDir(st, *preload, cmdutil.SplitList(*exports)[0]); err != nil {
				log.Fatalf("scallad: preload: %v", err)
			}
		}
		cfg.Store = st
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	node, err := cmsd.NewNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	if *admin != "" {
		l, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("scallad: admin listen: %v", err)
		}
		defer l.Close()
		go http.Serve(l, node.AdminHandler())
		log.Printf("scallad: admin endpoint on http://%s/statusz", l.Addr())
	}
	log.Printf("scallad: %s %q up (data %s ctl %s, exports %s)",
		*role, *name, *data, *ctl, *exports)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("scallad: shutting down")
	node.Stop()
}

// loadDir seeds the store with every regular file under dir, placed
// beneath the first exported prefix.
func loadDir(st *store.Store, dir, prefix string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		key := prefix + "/" + filepath.ToSlash(rel)
		if err := st.Put(key, data); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		return nil
	})
}
