// Command slate-proxy runs a standalone SLATE-proxy sidecar for one
// application instance (paper §3.1): it proxies inbound traffic to the
// local app, routes the app's outbound calls per the pushed rules,
// pushes telemetry to its cluster controller, and polls it for routing
// table updates. With slate-global and slate-cluster, this completes a
// SLATE deployment that spans real processes.
//
// Peer discovery uses a static JSON resolver file mapping
// "service@cluster" to the peer sidecar's base URL:
//
//	{"svc-b@west": "http://10.0.0.4:9001", "svc-b@east": "http://10.1.0.4:9001"}
//
// Usage:
//
//	slate-proxy -service svc-a -cluster west -listen 127.0.0.1:9000 \
//	    -local-app http://127.0.0.1:8080 \
//	    -cluster-controller http://127.0.0.1:7101 \
//	    -resolver peers.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func main() {
	var (
		service  = flag.String("service", "", "application service this sidecar fronts (required)")
		cluster  = flag.String("cluster", "", "cluster this instance runs in (required)")
		listen   = flag.String("listen", "127.0.0.1:9000", "HTTP listen address")
		localApp = flag.String("local-app", "", "base URL of the local application instance (required)")
		ccURL    = flag.String("cluster-controller", "", "cluster controller base URL (optional: without it the proxy serves rules-free)")
		resolver = flag.String("resolver", "", "JSON file mapping service@cluster to sidecar URLs (required)")
		period   = flag.Duration("sync-period", 5*time.Second, "telemetry push / rule poll interval")
		seed     = flag.Int64("seed", 0, "routing pick seed (0 = time-based)")

		// Graceful-degradation knobs (see DESIGN.md "degradation ladder").
		staleAfter = flag.Duration("stale-after", 0, "rule staleness TTL: past it the proxy degrades to local-biased routing until the controller answers (0 = hold stale rules forever)")
		retries    = flag.Int("sync-retries", 2, "per-RPC retry attempts within one sync round (-1 disables)")
		backoff    = flag.Duration("sync-backoff", 100*time.Millisecond, "base retry backoff, doubled per attempt with seeded jitter")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if *service == "" || *cluster == "" || *localApp == "" || *resolver == "" {
		fmt.Fprintln(os.Stderr, "slate-proxy: -service, -cluster, -local-app and -resolver are required")
		flag.Usage()
		os.Exit(2)
	}
	peers, err := loadResolver(*resolver)
	if err != nil {
		log.Fatalf("slate-proxy: %v", err)
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	proxy, err := dataplane.New(dataplane.Config{
		Service:    *service,
		Cluster:    topology.ClusterID(*cluster),
		LocalApp:   *localApp,
		Resolver:   peers,
		RNG:        sim.NewRNG(*seed),
		StaleAfter: *staleAfter,
	})
	if err != nil {
		log.Fatalf("slate-proxy: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *ccURL != "" {
		agent, err := controlplane.NewAgent(proxy, *ccURL, controlplane.AgentOptions{
			Period:      *period,
			MaxRetries:  *retries,
			BackoffBase: *backoff,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatalf("slate-proxy: %v", err)
		}
		go agent.Run(ctx)
	}

	// The proxy serves GET /metrics/prom itself; -pprof adds the
	// debug endpoints in front of the catch-all proxying.
	var h http.Handler = proxy
	if *pprofOn {
		mux := http.NewServeMux()
		obs.MountDebug(mux)
		mux.Handle("/", proxy)
		h = mux
	}
	srv := &http.Server{Addr: *listen, Handler: h}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	log.Printf("slate-proxy[%s@%s]: serving on %s, app %s, cc %q",
		*service, *cluster, *listen, *localApp, *ccURL)
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatalf("slate-proxy: %v", err)
	}
}

// staticResolver resolves peers from the static map.
type staticResolver map[string]string

func (r staticResolver) Resolve(service string, cluster topology.ClusterID) (string, error) {
	if u, ok := r[service+"@"+string(cluster)]; ok {
		return u, nil
	}
	return "", fmt.Errorf("no entry for %s@%s", service, cluster)
}

func loadResolver(path string) (staticResolver, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m staticResolver
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("resolver file %s is empty", path)
	}
	return m, nil
}
