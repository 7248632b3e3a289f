// scalla-pcache runs one edge proxy-cache daemon over TCP: it speaks
// the client protocol toward an origin federation's managers and the
// server protocol toward local clients, absorbing repeat opens and hot
// reads at the edge (internal/pcache).
//
// A farm points its clients at the proxy instead of the origin
// managers; nothing else changes:
//
//	scalla-pcache -name edge0 -data :1094 -origins mgrhost:1094
//
// Tune the data cache (block granularity, capacity, lifetime) and the
// origin readahead window:
//
//	scalla-pcache -name edge0 -data :1094 -origins mgrhost:1094 \
//	        -block 64KiB=65536 -cache-bytes 268435456 -block-lifetime 10m \
//	        -readahead 4
//
// Observability mirrors scallad: -admin serves /statusz, /metricsz,
// and /tracez; -summary streams JSON summary frames (with the pcache
// hit/miss/origin section) to a collector; -trace N records spans:
//
//	scalla-pcache -name edge0 -data :1094 -origins mgrhost:1094 \
//	        -admin :8082 -summary udp:mon-host:9931 -trace 512
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scalla/internal/cmdutil"
	"scalla/internal/obs"
	"scalla/internal/pcache"
	"scalla/internal/transport"
)

func main() {
	name := flag.String("name", "pcache", "proxy identity in summary frames")
	data := flag.String("data", ":1094", "data-plane listen address (clients connect here)")
	origins := flag.String("origins", "", "comma-separated origin manager data addresses (required)")
	block := flag.Int("block", pcache.DefaultBlockSize, "data-cache block size in bytes")
	cacheBytes := flag.Int64("cache-bytes", pcache.DefaultCacheBytes, "resident block data cap in bytes")
	blockLifetime := flag.Duration("block-lifetime", 10*time.Minute, "block age-out via the eviction windows")
	locLifetime := flag.Duration("loc-lifetime", 8*time.Hour, "location object lifetime Lt")
	readahead := flag.Int("readahead", 4, "blocks fetched from origin per miss")
	workers := flag.Int("workers", 8, "requests dispatched at once across all downstream connections")
	rpcTimeout := flag.Duration("rpc-timeout", 15*time.Second, "one origin exchange bound")
	admin := flag.String("admin", "", "admin/status HTTP address serving /statusz /metricsz /tracez")
	summary := flag.String("summary", "", "summary-stream target: udp:host:port, tcp:host:port, or - for stdout")
	summaryEvery := flag.Duration("summary-every", 10*time.Second, "summary frame period")
	traceCap := flag.Int("trace", 0, "enable request tracing with a ring of this many spans")
	verbose := flag.Bool("v", false, "log diagnostics")
	flag.Parse()

	if *origins == "" {
		log.Fatal("scalla-pcache: -origins is required")
	}
	cfg := pcache.Config{
		// Counted so summary frames carry the proxy's frame/byte totals.
		Net:             transport.Counting(transport.TCP()),
		Addr:            *data,
		Origins:         cmdutil.SplitList(*origins),
		Name:            *name,
		BlockSize:       *block,
		CacheBytes:      *cacheBytes,
		BlockLifetime:   *blockLifetime,
		LocLifetime:     *locLifetime,
		OriginReadahead: *readahead,
		Workers:         *workers,
		RPCTimeout:      *rpcTimeout,
	}
	if *traceCap > 0 {
		cfg.Tracer = obs.NewTracer(*traceCap, nil)
		cfg.Tracer.SetEnabled(true)
	}
	if *summary != "" {
		sink, err := cmdutil.ParseSink(*summary)
		if err != nil {
			log.Fatalf("scalla-pcache: %v", err)
		}
		cfg.Summary = sink
		cfg.SummaryEvery = *summaryEvery
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	p := pcache.New(cfg)
	if err := p.Start(); err != nil {
		log.Fatal(err)
	}
	if *admin != "" {
		l, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("scalla-pcache: admin listen: %v", err)
		}
		defer l.Close()
		go http.Serve(l, p.AdminHandler())
		log.Printf("scalla-pcache: admin endpoint on http://%s/statusz", l.Addr())
	}
	log.Printf("scalla-pcache: %q up (data %s, origins %s, cache %d MiB / %d KiB blocks)",
		*name, *data, *origins, *cacheBytes>>20, *block>>10)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("scalla-pcache: shutting down")
	p.Close()
}
