// Command slate-cluster runs a SLATE Cluster Controller daemon for one
// cluster: it receives telemetry pushed by local SLATE-proxies
// (POST /v1/metrics), relays aggregated windows to the Global
// Controller, and accepts incremental rule pushes (POST /v1/patch) for
// local distribution (paper §3.2).
//
// Usage:
//
//	slate-cluster -cluster west -listen 127.0.0.1:7101 \
//	    -global http://127.0.0.1:7000 -period 5s
//
// With a replicated global controller, -global lists every replica,
// comma-separated: the cluster reports to each and is a lease acceptor
// for each. A replica that does not answer the registration at start is
// asked again every period until it does.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func main() {
	var (
		cluster   = flag.String("cluster", "", "cluster ID this controller serves (required)")
		listen    = flag.String("listen", "127.0.0.1:7101", "HTTP listen address")
		globalURL = flag.String("global", "", "global controller base URL, or every replica's, comma-separated (required)")
		selfURL   = flag.String("advertise", "", "URL the global controller should push rules to (default http://<listen>)")
		period    = flag.Duration("period", 5*time.Second, "telemetry report interval")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if *cluster == "" || *globalURL == "" {
		fmt.Fprintln(os.Stderr, "slate-cluster: -cluster and -global are required")
		flag.Usage()
		os.Exit(2)
	}
	if *selfURL == "" {
		*selfURL = "http://" + *listen
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	cc := newCluster(topology.ClusterID(*cluster), *globalURL)
	if err := cc.Register(ctx, *selfURL); err != nil {
		log.Printf("slate-cluster: %v (retried every period)", err)
	}

	go cc.Run(ctx, *period)

	h := cc.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		obs.MountDebug(mux)
		h = mux
	}
	srv := &http.Server{Addr: *listen, Handler: h}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	log.Printf("slate-cluster[%s]: serving on %s, reporting to %s every %v",
		*cluster, *listen, *globalURL, *period)
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatalf("slate-cluster: %v", err)
	}
}

// newCluster returns a cluster controller reporting to every global
// replica in the comma-separated list globals.
func newCluster(id topology.ClusterID, globals string) *controlplane.Cluster {
	urls := strings.Split(globals, ",")
	cc := controlplane.NewCluster(id, strings.TrimSpace(urls[0]))
	for _, u := range urls[1:] {
		cc.AddUpstream(strings.TrimSpace(u))
	}
	return cc
}
