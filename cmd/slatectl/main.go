// Command slatectl runs SLATE's global optimization over a scenario
// file and prints the routing rules and predictions — the offline
// "what would SLATE do" tool.
//
// Usage:
//
//	slatectl -scenario scenario.json
//	slatectl -scenario scenario.json -cost-weight 1e4 -json
//	slatectl -scenario scenario.json -policy waterfall -threshold 0.8
//	slatectl metrics 127.0.0.1:7000        # scrape a live daemon
//	slatectl optstats 127.0.0.1:7000       # solver win counters
//	slatectl leader 127.0.0.1:7000         # role, lease epoch, table version
//	slatectl diff old-table.json new-table.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		if err := scrapeMetrics(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "optstats" {
		if err := optStats(os.Stdout, os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "leader" {
		if err := leaderStatus(os.Stdout, os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := diffTables(os.Stdout, os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		path       = flag.String("scenario", "", "scenario JSON file (required)")
		latWeight  = flag.Float64("latency-weight", 1, "objective weight for latency")
		costWeight = flag.Float64("cost-weight", 0, "objective weight for egress cost ($/s)")
		policy     = flag.String("policy", "slate", "slate | waterfall | locality-failover")
		threshold  = flag.Float64("threshold", 0.8, "waterfall threshold fraction of rated capacity")
		asJSON     = flag.Bool("json", false, "emit the routing table as JSON")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "slatectl: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	top, app, demand, err := scenario.Load(*path)
	if err != nil {
		fatal(err)
	}

	switch *policy {
	case "slate":
		prob := &core.Problem{
			Top:      top,
			App:      app,
			Demand:   demand,
			Profiles: core.DefaultProfiles(app, top, demand),
			Config:   core.Config{LatencyWeight: *latWeight, CostWeight: *costWeight},
		}
		plan, err := prob.Optimize(1)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			json.NewEncoder(os.Stdout).Encode(plan.Table)
			return
		}
		fmt.Print(plan.Table.String())
		fmt.Printf("\nobjective: %.6f\n", plan.Objective)
		fmt.Printf("planned egress: %.3f MB/s ($%.6f/s)\n",
			plan.EgressBytesPerSecond/1e6, plan.EgressPerSecond)
		classes := make([]string, 0, len(plan.PredictedMeanLatency))
		for c := range plan.PredictedMeanLatency {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Printf("predicted mean latency [%s]: %v\n", c, plan.PredictedMeanLatency[c])
		}
		fmt.Println("\nplanned pool loads:")
		for _, l := range plan.Loads {
			fmt.Printf("  %-24s %8.1f std-rps  util %5.1f%%  sojourn %v\n",
				l.Key.String(), l.StdRPS, l.Utilization*100, l.PredictedSojourn)
		}
	case "waterfall":
		caps := baseline.DefaultCapacities(app, top, demand, *threshold)
		tab, err := baseline.Waterfall(top, app, demand, caps, 1)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			json.NewEncoder(os.Stdout).Encode(tab)
			return
		}
		fmt.Print(tab.String())
	case "locality-failover":
		tab, err := baseline.LocalityFailover(top, app, 1)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			json.NewEncoder(os.Stdout).Encode(tab)
			return
		}
		fmt.Print(tab.String())
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
}

// scrapeMetrics fetches a SLATE daemon's Prometheus exposition
// (`slatectl metrics <addr>`) and prints it to stdout. addr may be a
// bare host:port or a full base URL; the /metrics/prom path is appended
// unless already present.
func scrapeMetrics(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: slatectl metrics <addr>")
	}
	body, err := fetchMetrics(args[0])
	if err != nil {
		return err
	}
	_, err = os.Stdout.WriteString(body)
	return err
}

// fetchMetrics GETs a daemon's Prometheus exposition. addr may be a
// bare host:port or a full base URL; the /metrics/prom path is appended
// unless already present.
func fetchMetrics(addr string) (string, error) {
	u := addr
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.HasSuffix(u, obs.MetricsPath) {
		u = strings.TrimSuffix(u, "/") + obs.MetricsPath
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// optStats scrapes a daemon's metrics endpoint and prints the solver
// win counters (`slatectl optstats <addr>`): how the controller's dirty
// shards were served — anytime search wins, simplex fallbacks, search
// candidates abandoned for missing the configured gap — alongside the
// warm/cold LP solve and subproblem skip counters.
func optStats(w io.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: slatectl optstats <addr>")
	}
	body, err := fetchMetrics(args[0])
	if err != nil {
		return err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "slate_global_") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
			vals[fields[0]] = v
		}
	}
	rows := []struct{ label, metric string }{
		{"search solves (race won)", "slate_global_search_solves"},
		{"simplex wins (race lost)", "slate_global_search_simplex_wins"},
		{"search abandoned (gap/infeasible)", "slate_global_search_gap_abandoned"},
		{"LP warm solves", "slate_global_lp_warm_solves"},
		{"  resumed from the kept tableau", "slate_global_lp_kept_solves"},
		{"  repaired by dual pivots", "slate_global_lp_dual_repairs"},
		{"LP cold solves", "slate_global_lp_cold_solves"},
		{"subproblems", "slate_global_subproblems"},
		{"subproblem solves", "slate_global_subproblem_solves"},
		{"subproblem skips", "slate_global_subproblem_skips"},
	}
	found := false
	for _, r := range rows {
		v, ok := vals[r.metric]
		if !ok {
			continue
		}
		found = true
		fmt.Fprintf(w, "%-34s %12.0f\n", r.label, v)
	}
	if !found {
		return fmt.Errorf("no slate_global_* solver metrics at %s (is this a global controller?)", args[0])
	}
	search, simplex := vals["slate_global_search_solves"], vals["slate_global_search_simplex_wins"]
	if raced := search + simplex; raced > 0 {
		fmt.Fprintf(w, "%-34s %11.1f%%\n", "search win rate", 100*search/raced)
	}
	return nil
}

// leaderStatus fetches a controller's /v1/health and prints who leads
// the control plane (`slatectl leader <addr>`). Pointed at a global
// replica it prints the replica's role, lease epoch and table version;
// pointed at a cluster controller it prints which replica holds that
// cluster's vote and the publish-fence epoch.
func leaderStatus(w io.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: slatectl leader <addr>")
	}
	u := args[0]
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	u = strings.TrimSuffix(u, "/") + "/v1/health"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// One view fits both health shapes: a cluster controller reports
	// "cluster", a global replica reports "role".
	var h struct {
		Cluster      string `json:"cluster"`
		Replica      string `json:"replica"`
		Role         string `json:"role"`
		LeaderURL    string `json:"leader_url"`
		LeaseEpoch   uint64 `json:"lease_epoch"`
		LeaderEpoch  uint64 `json:"leader_epoch"`
		PubEpoch     uint64 `json:"pub_epoch"`
		TableVersion uint64 `json:"table_version"`
		LastError    string `json:"last_error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("%s: %w", u, err)
	}
	line := func(k string, v any) { fmt.Fprintf(w, "%-14s %v\n", k, v) }
	if h.Cluster != "" {
		fmt.Fprintf(w, "cluster controller %s\n", h.Cluster)
		leader := h.LeaderURL
		if leader == "" {
			leader = "(none: unreplicated or no lease granted)"
		}
		line("leader", leader)
		line("lease epoch", h.LeaderEpoch)
		line("fence epoch", h.PubEpoch)
		line("table version", h.TableVersion)
		return nil
	}
	if h.Role == "" {
		return fmt.Errorf("%s: no role or cluster in health response (not a SLATE controller?)", u)
	}
	fmt.Fprintf(w, "global controller %s\n", h.Role)
	if h.Replica != "" {
		line("replica", h.Replica)
	}
	if h.LeaderURL != "" {
		line("leader", h.LeaderURL)
	}
	line("lease epoch", h.LeaseEpoch)
	line("table version", h.TableVersion)
	if h.LastError != "" {
		line("last error", h.LastError)
	}
	return nil
}

// diffTables loads two routing-table JSON files (as emitted by
// `slatectl -json` or the control-plane wire protocol) and prints a
// human-readable routing.Diff (`slatectl diff <a.json> <b.json>`): one
// line per changed rule with the per-cluster weight moves and the
// fraction of that rule's traffic changing destination. It doubles as
// the debugging tool for the patch-based rule distribution: diffing a
// cluster's table before and after a patch shows what the patch did.
func diffTables(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: slatectl diff <table-a.json> <table-b.json>")
	}
	tabs := make([]*routing.Table, 2)
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var t routing.Table
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		tabs[i] = &t
	}
	deltas := routing.Diff(tabs[0], tabs[1])
	fmt.Fprintf(w, "v%d -> v%d: %d rule(s) changed\n", tabs[0].Version, tabs[1].Version, len(deltas))
	for _, d := range deltas {
		ids := make([]topology.ClusterID, 0, len(d.Moves))
		for c := range d.Moves {
			ids = append(ids, c)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var b strings.Builder
		for _, c := range ids {
			fmt.Fprintf(&b, "  %s %+.3f", c, d.Moves[c])
		}
		fmt.Fprintf(w, "  %-36s moved %5.1f%%:%s\n", d.Key.String(), d.TotalMove()*100, b.String())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slatectl:", err)
	os.Exit(1)
}
