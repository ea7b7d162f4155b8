package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/topology"
)

// ParallelScalingRow is one measured worker count of the parallel
// experiment.
type ParallelScalingRow struct {
	Workers             int     `json:"workers"`
	ColdMS              float64 `json:"cold_ms"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
}

// ParallelResult is the parallel-synthesis artifact
// (BENCH_parallel.json): destination scaling across worker counts on
// the leaf-spine workload. Speedups are bounded by real cores, so the
// artifact records GOMAXPROCS next to the Go version and commit that
// produced it (see docs/PERFORMANCE.md).
type ParallelResult struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	Leaves       int    `json:"leaves"`
	Spines       int    `json:"spines"`
	Destinations int    `json:"destinations"`

	SequentialMS float64              `json:"sequential_ms"`
	Scaling      []ParallelScalingRow `json:"scaling"`
}

// Parallel re-solves the satperf leaf-spine workload cold at
// increasing destination worker counts (LPT scheduling over the
// per-destination instances; validation skipped, best of three) against
// the sequential baseline.
func Parallel(w io.Writer, scale Scale) ParallelResult {
	leaves, spines := 6, 2
	if scale == Full {
		leaves, spines = 12, 3
	}
	res := ParallelResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		Leaves:     leaves, Spines: spines,
	}

	topo := topology.LeafSpine(leaves, spines, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	var text string
	for d := 0; d < leaves; d++ {
		text += fmt.Sprintf("block 10.%d.0.0/24 -> 10.%d.0.0/24\n", (d+1)%leaves, d)
	}
	ps, err := policy.Parse(text)
	if err != nil {
		panic(err)
	}
	solve := func(opts core.Options) (float64, int) {
		best := 0.0
		dests := 0
		for run := 0; run < 3; run++ {
			start := time.Now()
			r, err := core.SynthesizeContext(context.Background(), net, topo, ps, opts)
			if err != nil {
				panic(err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if run == 0 || ms < best {
				best = ms
			}
			dests = len(r.Instances)
		}
		return best, dests
	}
	base := core.DefaultOptions()
	base.SkipValidation = true
	base.MinimizeLines = true
	seqOpts := base
	seqOpts.Sequential = true
	res.SequentialMS, res.Destinations = solve(seqOpts)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := base
		opts.Workers = workers
		ms, _ := solve(opts)
		row := ParallelScalingRow{Workers: workers, ColdMS: ms}
		if ms > 0 {
			row.SpeedupVsSequential = res.SequentialMS / ms
		}
		res.Scaling = append(res.Scaling, row)
	}

	fmt.Fprintf(w, "destination scaling (%dx%d leaf-spine, %d destinations, GOMAXPROCS=%d, %s, commit %s)\n",
		leaves, spines, res.Destinations, res.GOMAXPROCS, res.GoVersion, res.Commit)
	fmt.Fprintf(w, "%-12s %10s %8s\n", "workers", "cold(ms)", "speedup")
	fmt.Fprintf(w, "%-12s %10.1f %8s\n", "sequential", res.SequentialMS, "1.00x")
	for _, row := range res.Scaling {
		fmt.Fprintf(w, "%-12d %10.1f %7.2fx\n", row.Workers, row.ColdMS, row.SpeedupVsSequential)
	}
	return res
}

// WriteParallelJSON writes the benchmark artifact consumed by
// `make bench-parallel`.
func WriteParallelJSON(path string, res ParallelResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
