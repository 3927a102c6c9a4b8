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
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func main() {
	var (
		cluster   = flag.String("cluster", "", "cluster ID this controller serves (required)")
		listen    = flag.String("listen", "127.0.0.1:7101", "HTTP listen address")
		globalURL = flag.String("global", "", "global controller base URL (required)")
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

	cc := controlplane.NewCluster(topology.ClusterID(*cluster), *globalURL)
	if err := cc.Register(ctx, *selfURL); err != nil {
		log.Fatalf("slate-cluster: register: %v", err)
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
