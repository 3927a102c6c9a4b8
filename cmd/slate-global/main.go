// Command slate-global runs the SLATE Global Controller daemon: it
// accepts telemetry uploads from cluster controllers, periodically runs
// the routing optimization, and pushes rule tables back down (paper
// §3.3). The application model and topology come from a scenario file.
//
// Usage:
//
//	slate-global -scenario scenario.json -listen 127.0.0.1:7000 -period 5s
//
// Replicated mode — run N copies, each advertising its own URL; the
// cluster controllers are the lease acceptors, so replicas need no
// peer list:
//
//	slate-global -scenario scenario.json -listen 10.0.0.1:7000 \
//	    -replica http://10.0.0.1:7000 -lease-ttl 10s
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
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/scenario"
)

func main() {
	var (
		path       = flag.String("scenario", "", "scenario JSON file with topology and app (required)")
		listen     = flag.String("listen", "127.0.0.1:7000", "HTTP listen address")
		period     = flag.Duration("period", 5*time.Second, "optimization interval")
		latWeight  = flag.Float64("latency-weight", 1, "objective weight for latency")
		costWeight = flag.Float64("cost-weight", 0, "objective weight for egress cost")
		maxStep    = flag.Float64("max-step", 0.25, "max traffic weight moved per period per rule")
		learn      = flag.Bool("learn-profiles", true, "fit latency profiles from telemetry")
		guard      = flag.Bool("guard", true, "revert rule changes that regress the measured objective")
		margin     = flag.Float64("robust-margin", 0, "robust mode: relative demand-uncertainty margin (0 disables; e.g. 0.25 hedges a 25% surge)")
		predictive = flag.Bool("predictive", false, "plan for forecasted demand (Holt trend smoothing) instead of the last window's estimate alone")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		replica    = flag.String("replica", "", "advertised base URL of this replica; enables replicated mode (leader lease + warm snapshot handoff)")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "replicated mode: leader lease TTL (2x the period is a good choice)")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "slate-global: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	top, app, demand, err := scenario.Load(*path)
	if err != nil {
		log.Fatalf("slate-global: %v", err)
	}
	cfg := core.ControllerConfig{
		Optimizer: core.Config{
			LatencyWeight: *latWeight, CostWeight: *costWeight,
			DemandMargin: *margin,
		},
		MaxStep:         *maxStep,
		LearnProfiles:   *learn,
		GuardRegression: *guard,
		Decompose:       true,
		Search:          true,
	}
	if *predictive {
		cfg.Forecast = forecast.Defaults()
	}
	ctrl, err := core.NewController(top, app, cfg)
	if err != nil {
		log.Fatalf("slate-global: %v", err)
	}
	if len(demand) > 0 {
		ctrl.SetDemand(demand) // optional seed; telemetry refines it
	}
	g := controlplane.NewGlobal(ctrl)
	if *replica != "" {
		g.EnableHA(*replica, *leaseTTL)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	go g.Run(ctx, *period)

	h := g.Handler()
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
	mode := "single"
	if *replica != "" {
		mode = "replica " + *replica
	}
	log.Printf("slate-global: serving on %s (%s, period %v, app %s, %d clusters)",
		*listen, mode, *period, app.Name, top.NumClusters())
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatalf("slate-global: %v", err)
	}
}
