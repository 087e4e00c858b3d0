// Command qosrmad is the long-running QoS-RMA decision service: it builds
// (or loads) a compiled simulation database once at startup and then
// serves resource-management decisions, collocation scores and scenario
// sweeps over HTTP/JSON, with a live-ops control plane for production
// runs (Prometheus metrics, hot reload, graceful drain, self-audit).
//
// Endpoints (full reference in docs/api.md):
//
//	POST /v1/decide           per-machine RMA settings for co-phase vectors
//	POST /v1/score            collocation scoring / online placement
//	POST /v1/sweep            submit an async scenario sweep
//	GET  /v1/sweep/{id}       sweep job status
//	GET  /v1/sweep/{id}/result?format=csv|json
//	GET  /v1/meta             servable benchmarks, phases, schemes, version
//	GET  /v1/healthz          liveness (degrades on failed self-audit)
//	GET  /metrics             Prometheus text exposition
//	GET  /admin/status        operator status page
//	POST /admin/reload        hot-swap the database (SIGHUP does the same)
//	POST /admin/check         run a self-audit now
//
// Signals:
//
//	SIGHUP             reload the database (from -db, or a rebuild) and
//	                   swap it in atomically; in-flight requests finish on
//	                   the old snapshot
//	SIGTERM / SIGINT   graceful drain: stop accepting, finish in-flight
//	                   work and running sweep jobs, exit (bounded by
//	                   -drain-timeout)
//
// Besides HTTP/JSON, two scale-out modes:
//
//	-wire-addr :7744   also serve the compact binary decide protocol
//	                   (internal/wire; spec in docs/api.md) on a raw TCP
//	                   listener — the same shards, bit-identical
//	                   answers, several times the JSON throughput
//	-route SPEC        routing-tier mode: serve no decisions locally, but
//	                   consistent-hash decide batches across replicated
//	                   backend groups ("a:7743,b:7743;c:7743" = two
//	                   groups, the first with two replicas) and forward
//	                   everything else to a rotating replica — with
//	                   bounded retries, per-replica circuit breakers and
//	                   active health probing (-route-retries,
//	                   -route-timeout, -route-probe-interval). Replicas
//	                   may declare a wire address ("a:7743|a:7744");
//	                   combined with -wire-addr the tier then proxies the
//	                   binary decide protocol too, with the same failover
//	                   semantics over per-backend connection pools
//
// Usage:
//
//	qosrmad -addr :7743 -cores 4
//	qosrmad -addr :7743 -db db.gob.gz -audit-interval 30s
//	qosrmad -addr :7743 -wire-addr :7744
//	qosrmad -addr :7700 -route "10.0.0.1:7743;10.0.0.2:7743"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qosrma"
	"qosrma/internal/route"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7743", "listen address")
		wireAddr     = flag.String("wire-addr", "", "also serve the binary decide protocol on this raw-TCP address")
		routeSpec    = flag.String("route", "", "routing-tier mode: consistent-hash decide traffic across backend groups (groups ';'-separated, replicas ','-separated, optional 'http|wire' per replica)")
		vnodes       = flag.Int("vnodes", 0, "routing-tier virtual nodes per group (0 = default)")
		routeRetries = flag.Int("route-retries", 2, "routing-tier extra attempts for idempotent requests (negative disables)")
		routeTimeout = flag.Duration("route-timeout", 2*time.Second, "routing-tier per-attempt deadline (0 = default 2s)")
		routeProbe   = flag.Duration("route-probe-interval", 2*time.Second, "routing-tier health-probe period (0 disables active probing)")
		routeSeed    = flag.Uint64("route-seed", 1, "routing-tier backoff-jitter seed")
		maxInflight  = flag.Int("max-inflight", 0, "decide/score load-shed gate (0 = default 1024)")
		cores        = flag.Int("cores", 4, "cores per machine (when building the database)")
		dbPath       = flag.String("db", "", "load a compiled database instead of building one (also the SIGHUP reload source)")
		shards       = flag.Int("shards", 0, "decision shards (0 = GOMAXPROCS, capped at 16)")
		cache        = flag.Int("cache", 0, "per-shard decision-LRU entries (0 = default 4096, negative disables)")
		auditEvery   = flag.Duration("audit-interval", time.Minute, "self-checker period (0 disables periodic audits)")
		auditSamples = flag.Int("audit-samples", 0, "cached decisions re-verified per audit (0 = default 16)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline on SIGTERM/SIGINT")
	)
	flag.Parse()
	// Every forward attempt has a deadline and every server a load-shed
	// gate: a negative value is a mistake, not a way to turn either off.
	if *routeTimeout < 0 {
		log.Fatal("qosrmad: -route-timeout must not be negative")
	}
	if *maxInflight < 0 {
		log.Fatal("qosrmad: -max-inflight must not be negative")
	}

	if *routeSpec != "" {
		runRouter(routerConfig{
			addr:          *addr,
			wireAddr:      *wireAddr,
			spec:          *routeSpec,
			vnodes:        *vnodes,
			retries:       *routeRetries,
			timeout:       *routeTimeout,
			probeInterval: *routeProbe,
			seed:          *routeSeed,
			drainTimeout:  *drainTimeout,
		})
		return
	}

	start := time.Now()
	var (
		sys *qosrma.System
		err error
	)
	if *dbPath != "" {
		sys, err = qosrma.LoadSystem(*dbPath)
	} else {
		sys, err = qosrma.NewSystem(*cores)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosrmad: %v\n", err)
		os.Exit(1)
	}

	srv := sys.NewServer(qosrma.ServeSpec{
		Shards:        *shards,
		CacheSize:     *cache,
		ReloadPath:    *dbPath,
		AuditInterval: *auditEvery,
		AuditSamples:  *auditSamples,
		MaxInflight:   *maxInflight,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	hash, _, _, _ := srv.Snapshot()
	log.Printf("qosrmad: database ready in %.2fs (%d cores, %d benchmarks, hash %s); listening on %s",
		time.Since(start).Seconds(), sys.Config().NumCores, sys.DB().NumBenches(), hash, *addr)

	// The binary listener rides beside the HTTP one: same shards,
	// bit-identical answers, and Close/Shutdown tear it down with the rest
	// of the server.
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosrmad: wire listener: %v\n", err)
			os.Exit(1)
		}
		log.Printf("qosrmad: binary decide protocol on %s", *wireAddr)
		go func() {
			if err := srv.ServeWire(ln); err != nil {
				log.Printf("qosrmad: wire serving stopped: %v", err)
			}
		}()
	}

	// SIGHUP → hot reload; SIGTERM/SIGINT → graceful drain. The signal
	// loop owns process lifetime; the serve goroutine just reports.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	for {
		select {
		case err := <-serveErr:
			if !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "qosrmad: %v\n", err)
				os.Exit(1)
			}
			return
		case sig := <-sigs:
			switch sig {
			case syscall.SIGHUP:
				t := time.Now()
				hash, gen, err := srv.Reload()
				if err != nil {
					log.Printf("qosrmad: reload failed: %v (still serving the previous database)", err)
					continue
				}
				log.Printf("qosrmad: reloaded in %.2fs (generation %d, hash %s)", time.Since(t).Seconds(), gen, hash)
			default:
				log.Printf("qosrmad: %v: draining (deadline %s)", sig, *drainTimeout)
				ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
				// Stop accepting connections first, then drain the
				// service's own queues and jobs.
				httpErr := httpSrv.Shutdown(ctx)
				svcErr := srv.Shutdown(ctx)
				cancel()
				if httpErr != nil || svcErr != nil {
					log.Printf("qosrmad: drain incomplete at deadline (http: %v, service: %v)", httpErr, svcErr)
					os.Exit(1)
				}
				log.Printf("qosrmad: drained cleanly")
				return
			}
		}
	}
}

// routerConfig carries the -route mode knobs from flag parsing.
type routerConfig struct {
	addr          string
	wireAddr      string
	spec          string
	vnodes        int
	retries       int
	timeout       time.Duration
	probeInterval time.Duration
	seed          uint64
	drainTimeout  time.Duration
}

// runRouter is -route mode: a stateless consistent-hash tier over
// replicated backend groups. It builds no database — decide batches are
// split by the ring and merged with bounded retries, per-replica circuit
// breakers and active health probing; everything else is forwarded
// whole. With -wire-addr the tier also proxies the binary decide
// protocol over per-backend connection pools.
func runRouter(cfg routerConfig) {
	groups, err := route.ParseGroups(cfg.spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosrmad: %v\n", err)
		os.Exit(1)
	}
	ring, err := route.New(groups, cfg.vnodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosrmad: %v\n", err)
		os.Exit(1)
	}
	proxy := route.NewProxyWithOptions(ring, nil, route.Options{
		AttemptTimeout: cfg.timeout,
		Retries:        cfg.retries,
		ProbeInterval:  cfg.probeInterval,
		Seed:           cfg.seed,
	})
	httpSrv := &http.Server{Addr: cfg.addr, Handler: proxy}

	var desc []string
	for _, g := range groups {
		desc = append(desc, fmt.Sprintf("%s[%d replicas]", g.Name, len(g.Addrs)))
	}
	log.Printf("qosrmad: routing tier on %s over %d groups: %s", cfg.addr, len(groups), strings.Join(desc, " "))

	if cfg.wireAddr != "" {
		ln, err := net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosrmad: wire listener: %v\n", err)
			os.Exit(1)
		}
		proxy.ServeWire(ln)
		log.Printf("qosrmad: routing binary decide protocol on %s", cfg.wireAddr)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "qosrmad: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigs:
		log.Printf("qosrmad: %v: draining routing tier (deadline %s)", sig, cfg.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		err := httpSrv.Shutdown(ctx)
		cancel()
		proxy.Close()
		if err != nil {
			log.Printf("qosrmad: drain incomplete at deadline: %v", err)
			os.Exit(1)
		}
		requests, splits, failures := proxy.Stats()
		log.Printf("qosrmad: routing tier drained cleanly (%d decide requests, %d split, %d forward failures)",
			requests, splits, failures)
	}
}
