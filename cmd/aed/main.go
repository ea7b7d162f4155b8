// Command aed synthesizes policy-compliant, objective-optimal
// configuration updates for a network.
//
// Usage:
//
//	aed -configs DIR -topo FILE -policies FILE [-objectives FILE]
//	    [-objective NAME] [-min-lines] [-monolithic] [-out DIR]
//	    [-stats] [-trace-out FILE] [-record-out FILE] [-retain DIR]
//	    [-timeout D] [-watch D]
//	    [-debug-addr ADDR] [-slow-solve D] [-incidents FILE]
//
// Telemetry: -stats prints a per-destination solver table (decisions,
// conflicts, restarts, iterations, time) plus the network-wide totals,
// and -trace-out FILE (alias: -trace) writes the full span tree (parse
// → encode → solve → extract → validate) and metrics registry as
// telemetry events — JSONL by default, or the compact AEDT binary
// format when FILE ends in .aedt (see docs/OBSERVABILITY.md for the
// taxonomy and both formats). -record-out FILE drains the flight
// recorder to disk at exit under the same extension rule, and
// -retain DIR continuously spills spans and recorder events to a
// size-capped ring of rotating AEDT segments (cap: -retain-max-mb).
//
// -debug-addr starts an HTTP debug endpoint (e.g. ":6060") serving
// /metrics, /spans (including in-flight spans), /recorder (the solver
// flight recorder), and /debug/pprof/ while synthesis runs.
//
// -slow-solve arms a watchdog: any single instance solve running longer
// than D produces a JSONL incident (to -incidents, default stderr dump
// only) with the open span stack and recent flight-recorder events —
// without aborting the solve. When -timeout is set and -slow-solve is
// not, the watchdog defaults to half the timeout.
//
// -timeout bounds the solve: when it expires, every in-flight CDCL
// search stops at its next conflict and aed exits with an error.
//
// -watch D runs the incremental session loop: aed keeps an aed.Session
// alive, polls the input files every D, and re-solves whenever the
// configs, topology, or policies change — re-solving only the
// destinations whose inputs actually changed (cache hits are reported
// per run). Interrupt (Ctrl-C) to exit.
//
// The configs directory holds one file per router in the dialect of
// the config package. The topology file uses a simple line format:
//
//	router <name> [role]
//	link <a> <b>
//	subnet <router> <prefix>
//
// Policies and objectives use their packages' one-per-line grammars.
// Updated configurations are written to -out (or printed); the change
// report goes to stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/deploy"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

func main() {
	var (
		configDir  = flag.String("configs", "", "directory of router config files (required)")
		topoFile   = flag.String("topo", "", "topology file (required)")
		policyFile = flag.String("policies", "", "policy file (required)")
		objFile    = flag.String("objectives", "", "objective file")
		objName    = flag.String("objective", "", "predefined objective set (preserve-templates, min-devices, min-pfs, avoid-static)")
		minLines   = flag.Bool("min-lines", false, "minimize changed lines (per-delta penalty)")
		monolithic = flag.Bool("monolithic", false, "solve one joint instance instead of per-destination")
		sequential = flag.Bool("sequential", false, "solve destination instances one at a time (default: parallel, GOMAXPROCS-bounded)")
		workers    = flag.Int("workers", 0, "bound concurrent destination solves (0 = GOMAXPROCS)")
		outDir     = flag.String("out", "", "directory for updated configs (default: print to stdout)")
		quiet      = flag.Bool("q", false, "only print the change summary")
		keepReach  = flag.Bool("keep-reachability", false,
			"infer the currently-holding reachability policies and preserve them (except pairs the new policies contradict)")
		plan      = flag.Bool("plan", false, "print a transient-safe per-device deployment order")
		explain   = flag.Bool("explain", false, "on unsat, name a minimal conflicting policy subset")
		stats     = flag.Bool("stats", false, "print per-destination solver statistics and network-wide totals")
		timeout   = flag.Duration("timeout", 0, "abort synthesis after this long (0 = no limit)")
		watch     = flag.Duration("watch", 0, "poll the input files at this interval and re-solve incrementally on change (0 = solve once)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /spans, /recorder and /debug/pprof on this address (e.g. :6060)")
		slowSolve = flag.Duration("slow-solve", 0, "record an incident when a solve runs longer than this (0 = half of -timeout, or off)")
		incidents = flag.String("incidents", "", "append watchdog incidents as JSONL to FILE (default: human dump to stderr only)")
		recordOut = flag.String("record-out", "", "write the flight-recorder drain to FILE at exit (.aedt = AEDT binary, else JSONL)")
		retainDir = flag.String("retain", "", "continuously spill telemetry to rotating AEDT segments in DIR")
		retainMB  = flag.Int("retain-max-mb", 64, "total on-disk cap for -retain segments, in MiB")
	)
	var traceFile string
	flag.StringVar(&traceFile, "trace-out", "",
		"write a telemetry trace (spans + metrics) to FILE (.aedt = AEDT binary, else JSONL)")
	flag.StringVar(&traceFile, "trace", "", "alias for -trace-out")
	flag.Parse()
	if *configDir == "" || *topoFile == "" || *policyFile == "" {
		flag.Usage()
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if traceFile != "" || *recordOut != "" || *retainDir != "" || *stats ||
		*debugAddr != "" || *slowSolve > 0 || *timeout > 0 {
		tracer = obs.NewCLITracer()
	}
	if *debugAddr != "" {
		closeDebug, err := obs.ServeDebugCLI("aed", *debugAddr, tracer)
		check(err)
		defer closeDebug()
	}
	var retention *obs.Retention
	if *retainDir != "" {
		ret, err := obs.NewRetention(tracer, obs.RetentionOptions{
			Dir: *retainDir, MaxBytes: int64(*retainMB) << 20,
		})
		check(err)
		retention = ret
		fmt.Fprintf(os.Stderr, "aed: retaining telemetry segments in %s (cap %d MiB)\n", *retainDir, *retainMB)
	}
	// Telemetry must reach disk on every path, including the early
	// os.Exit ones (unsat, residual violations). The file extension
	// picks the format: .aedt writes the binary format, anything else
	// JSONL (see docs/OBSERVABILITY.md §AEDT).
	writeTrace := func() {
		if err := retention.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "aed: retention:", err)
		}
		writeOut := func(path, what string, write func(*os.File) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			check(err)
			check(write(f))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "aed: %s written to %s\n", what, path)
		}
		writeOut(traceFile, "telemetry trace", func(f *os.File) error {
			return obs.SinkForPath(traceFile).WriteTrace(f, tracer)
		})
		writeOut(*recordOut, "flight-recorder drain", func(f *os.File) error {
			return obs.SinkForPath(*recordOut).WriteRecorder(f, tracer.Recorder())
		})
	}

	psp := tracer.Start("parse")
	net, err := loadConfigs(*configDir)
	check(err)
	topo, err := loadTopology(*topoFile)
	check(err)
	ps, err := loadPolicies(*policyFile, net, topo, *keepReach)
	check(err)
	psp.SetInt("routers", int64(len(net.Routers)))
	psp.SetInt("policies", int64(len(ps)))
	psp.End()

	opts := core.DefaultOptions()
	opts.MinimizeLines = *minLines
	opts.Monolithic = *monolithic
	opts.Sequential = *sequential
	opts.Workers = *workers
	opts.Explain = *explain
	if *objFile != "" {
		text, err := os.ReadFile(*objFile)
		check(err)
		objs, err := objective.Parse(string(text))
		check(err)
		opts.Objectives = append(opts.Objectives, objs...)
	}
	if *objName != "" {
		objs, err := objective.Named(*objName)
		check(err)
		opts.Objectives = append(opts.Objectives, objs...)
	}
	// An incremental synthesizer should stay close to the input even
	// when no objectives are specified.
	if len(opts.Objectives) == 0 && !opts.MinimizeLines {
		opts.MinimizeLines = true
	}
	opts.Tracer = tracer
	opts.SlowSolveAfter = *slowSolve
	if opts.SlowSolveAfter == 0 && *timeout > 0 {
		// A solve eating half the budget is worth a snapshot while it
		// can still finish inside the deadline.
		opts.SlowSolveAfter = *timeout / 2
	}
	if *incidents != "" {
		f, err := os.OpenFile(*incidents, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		check(err)
		defer f.Close()
		opts.IncidentWriter = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *watch > 0 {
		watchLoop(ctx, watchConfig{
			configDir: *configDir, topoFile: *topoFile, policyFile: *policyFile,
			keepReach: *keepReach, interval: *watch, timeout: *timeout,
			outDir: *outDir, stats: *stats,
		}, net, topo, ps, opts)
		writeTrace()
		return
	}

	solveCtx, cancel := withTimeout(ctx, *timeout)
	res, err := core.SynthesizeContext(solveCtx, net, topo, ps, opts)
	cancel()
	if errors.Is(err, context.DeadlineExceeded) {
		writeTrace()
		fmt.Fprintf(os.Stderr, "aed: synthesis exceeded -timeout %v\n", *timeout)
		os.Exit(1)
	}
	check(err)
	if *stats {
		printStats(res)
	}
	writeTrace()
	if u := res.Unsat(); u != nil {
		printUnsat(u)
		os.Exit(1)
	}
	report(res)
	if len(res.Violations) != 0 {
		os.Exit(1)
	}
	if *plan && len(res.Edits) > 0 {
		fmt.Println("\ndeployment plan:")
		fmt.Print(deploy.Build(net, topo, res.Edits, ps).String())
	}

	if *quiet {
		return
	}
	printed := config.PrintNetwork(res.Updated)
	if *outDir != "" {
		check(writeConfigs(*outDir, printed))
		fmt.Printf("updated configurations written to %s\n", *outDir)
		return
	}
	for _, name := range res.Updated.RouterNames() {
		fmt.Printf("\n===== %s =====\n%s", name, printed[name])
	}
}

// withTimeout wraps ctx with a deadline when d > 0.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// report prints the change summary shared by one-shot and watch modes.
func report(res *core.Result) {
	cached, rebound := 0, 0
	for _, in := range res.Instances {
		if in.Cached {
			cached++
		}
		if in.Rebound {
			rebound++
		}
	}
	fmt.Printf("synthesis complete in %v (%d instances, %d cached, %d rebound, solver time %v)\n",
		res.Duration.Round(1e6), len(res.Instances), cached, rebound, res.SolveTime.Round(1e6))
	fmt.Printf("devices changed: %d   lines changed: %d (+%d -%d)\n",
		res.Diff.DevicesChanged, res.Diff.LinesChanged(), res.Diff.LinesAdded, res.Diff.LinesRemoved)
	if res.ObjectiveViolations > 0 {
		fmt.Printf("objective violations (weight): %d\n", res.ObjectiveViolations)
	}
	core.SortEdits(res.Edits)
	for _, e := range res.Edits {
		fmt.Printf("  %s\n", e)
	}
	if len(res.Violations) != 0 {
		fmt.Fprintln(os.Stderr, "aed: WARNING: simulator found residual violations:")
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %v\n", v)
		}
	}
}

// printUnsat renders the structured unsatisfiability report.
func printUnsat(u *core.UnsatError) {
	fmt.Fprintf(os.Stderr, "aed: unsatisfiable for destinations: %v\n", u.Destinations)
	fmt.Fprintln(os.Stderr, "aed: the requested policies conflict or are unimplementable on this network")
	for _, dest := range u.Destinations {
		if conflict := u.Conflicts[dest]; len(conflict) > 0 {
			fmt.Fprintf(os.Stderr, "aed: minimal conflict for %s:\n", dest)
			for _, p := range conflict {
				fmt.Fprintf(os.Stderr, "  %s\n", p)
			}
		}
	}
}

type watchConfig struct {
	configDir, topoFile, policyFile string
	keepReach                       bool
	interval, timeout               time.Duration
	outDir                          string
	stats                           bool
}

// watchLoop is the operator loop the session engine targets: solve,
// wait for an input file to change, re-solve incrementally, repeat
// until interrupted.
func watchLoop(ctx context.Context, wc watchConfig, net *config.Network,
	topo *topology.Topology, ps []policy.Policy, opts core.Options) {

	eng := core.NewEngine(net, topo, opts)
	stamp := inputStamp(wc)
	for run := 1; ; run++ {
		solveCtx, cancel := withTimeout(ctx, wc.timeout)
		res, err := eng.Solve(solveCtx, ps)
		cancel()
		switch {
		case errors.Is(err, context.Canceled):
			return
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "aed: run %d exceeded -timeout %v\n", run, wc.timeout)
		case err != nil:
			fmt.Fprintf(os.Stderr, "aed: run %d: %v\n", run, err)
		default:
			fmt.Printf("--- run %d ---\n", run)
			if wc.stats {
				printStats(res)
			}
			if u := res.Unsat(); u != nil {
				printUnsat(u)
			} else {
				report(res)
				if wc.outDir != "" {
					if werr := writeConfigs(wc.outDir, config.PrintNetwork(res.Updated)); werr != nil {
						fmt.Fprintf(os.Stderr, "aed: %v\n", werr)
					}
				}
			}
		}

		// Poll the inputs until something changes or we are interrupted.
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wc.interval):
			}
			next := inputStamp(wc)
			if next != stamp {
				stamp = next
				break
			}
		}

		// Reload everything that may have changed. A topology change
		// invalidates the session wholesale; config and policy changes
		// are handled incrementally by the fingerprints.
		newNet, err := loadConfigs(wc.configDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aed: reload: %v\n", err)
			continue
		}
		newTopo, err := loadTopology(wc.topoFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aed: reload: %v\n", err)
			continue
		}
		newPs, err := loadPolicies(wc.policyFile, newNet, newTopo, wc.keepReach)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aed: reload: %v\n", err)
			continue
		}
		if !api.SameTopology(topo, newTopo) {
			topo = newTopo
			eng = core.NewEngine(newNet, newTopo, opts)
		} else {
			eng.SetNetwork(newNet)
		}
		ps = newPs
	}
}

// inputStamp summarizes the modification times and sizes of every
// input file; a stamp change triggers a reload.
func inputStamp(wc watchConfig) string {
	s := ""
	add := func(path string) {
		if fi, err := os.Stat(path); err == nil {
			s += fmt.Sprintf("%s:%d:%d;", path, fi.ModTime().UnixNano(), fi.Size())
		} else {
			s += path + ":gone;"
		}
	}
	if entries, err := os.ReadDir(wc.configDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				add(filepath.Join(wc.configDir, e.Name()))
			}
		}
	}
	add(wc.topoFile)
	add(wc.policyFile)
	return s
}

func writeConfigs(dir string, printed map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, text := range printed {
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadPolicies parses the policy file and, with keepReach, extends it
// with the currently-holding reachability policies that the new
// policies do not contradict.
func loadPolicies(path string, net *config.Network, topo *topology.Topology, keepReach bool) ([]policy.Policy, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ps, err := policy.Parse(string(text))
	if err != nil {
		return nil, err
	}
	if keepReach {
		blocked := make(map[string]bool)
		for _, p := range ps {
			if p.Kind == policy.Blocking || p.Kind == policy.Isolation {
				blocked[p.Src.String()+">"+p.Dst.String()] = true
				if p.Kind == policy.Isolation {
					blocked[p.Dst.String()+">"+p.Src.String()] = true
				}
			}
		}
		for _, p := range simulate.New(net, topo).InferReachability() {
			if !blocked[p.Src.String()+">"+p.Dst.String()] {
				ps = append(ps, p)
			}
		}
	}
	return ps, nil
}

// printStats renders the per-destination solver table followed by the
// network-wide totals (the field-wise sum across instances). glue is
// the number of learned clauses with LBD ≤ 2 (never deleted); avgLBD is
// the mean literal block distance over all learned clauses — low values
// mean the solver is learning reusable clauses (see docs/PERFORMANCE.md).
// rebound marks instances re-solved on a live solver by flipping
// retractable bindings (a -watch session's tier-2 path) instead of
// re-encoding. slow marks instances whose solve exceeded the
// -slow-solve watchdog threshold (each produced an incident record).
func printStats(res *core.Result) {
	avgLBD := func(s sat.Stats) float64 {
		if s.Learned == 0 {
			return 0
		}
		return float64(s.LBDSum) / float64(s.Learned)
	}
	fmt.Printf("%-20s %-5s %8s %8s %6s %10s %10s %9s %8s %6s %6s %12s %6s %7s %5s\n",
		"destination", "sat", "policies", "vars", "iters",
		"decisions", "conflicts", "restarts", "learned", "glue", "avgLBD", "time", "cached", "rebound", "slow")
	var iters, policies int
	for _, is := range res.Instances {
		dest := is.Destination.String()
		if is.Destination.Len == 0 {
			dest = "(joint)"
		}
		fmt.Printf("%-20s %-5v %8d %8d %6d %10d %10d %9d %8d %6d %6.1f %12v %6v %7v %5v\n",
			dest, is.Sat, is.Policies, is.NumVars, is.Iterations,
			is.Solver.Decisions, is.Solver.Conflicts, is.Solver.Restarts,
			is.Solver.Learned, is.Solver.GlueLearned, avgLBD(is.Solver),
			is.Duration.Round(1000), is.Cached, is.Rebound, is.Slow)
		iters += is.Iterations
		policies += is.Policies
	}
	fmt.Printf("%-20s %-5v %8d %8s %6d %10d %10d %9d %8d %6d %6.1f %12v\n",
		"total", res.Unsat() == nil, policies, "-", iters,
		res.Solver.Decisions, res.Solver.Conflicts, res.Solver.Restarts,
		res.Solver.Learned, res.Solver.GlueLearned, avgLBD(res.Solver),
		res.SolveTime.Round(1000))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aed:", err)
		os.Exit(1)
	}
}

func loadConfigs(dir string) (*config.Network, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	texts := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		texts[e.Name()] = string(data)
	}
	return config.ParseNetwork(texts)
}

func loadTopology(path string) (*topology.Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return topology.ParseText(filepath.Base(path), string(data))
}
