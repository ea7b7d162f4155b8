// Command perfbench is the repository's benchmark. It runs one of two
// seeded workloads against the synthesis path — one-shot aed.Do on
// leaf–spine fabrics (fabric-cold) and an open loop of edit-rerun
// requests against a spawned aedd (aedd-sessions) — checks every
// output independently, and prints one
// JSON result line. With --trace 1 it instead replays the same inputs
// through the program's layers, timing each layer from outside, and
// reports per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it and aedd from source:
//
//	bash perfbench/run.sh --workload fabric-cold --seed 1 --seconds 35 --trace 0
//
// --record regenerates perfbench/expected.json: the digest of every
// workload's input set and each input's optimal objective cost.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	aed "github.com/aed-net/aed"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"fabric-cold", "aedd-sessions"}

// sizes selects the problem sizes of every workload; the self-test runs
// tiny ones.
type sizes struct {
	Fabric  fabricSize
	Session sessionSize
	Rate    float64
}

var fullSizes = sizes{Fabric: fabricFull, Session: sessionFull, Rate: sessionRate}

func inputsOf(workload string, sz sizes) ([]Input, error) {
	switch workload {
	case "fabric-cold":
		return fabricPool(sz.Fabric), nil
	case "aedd-sessions":
		return sessionPool(sz.Session).list(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

// envelope is the environment and spread of one run, printed as the
// line before the result.
type envelope struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      float64              `json:"seconds"`
	Trace        bool                 `json:"trace"`
	Commit       string               `json:"commit"`
	SourceSHA256 string               `json:"source_sha256"`
	GoVersion    string               `json:"go_version"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	NumCPU       int                  `json:"nproc"`
	InputsDigest string               `json:"inputs_digest"`
	Inputs       int                  `json:"inputs"`
	Attempted    int                  `json:"attempted"`
	RunSeconds   float64              `json:"run_seconds"`
	StealShare   float64              `json:"host_steal_share"`
	Slowdown     map[string]float64   `json:"host_slowdown,omitempty"`
	Measured     map[string]float64   `json:"measured,omitempty"`
	Rate         float64              `json:"rate_per_s,omitempty"`
	Connections  int                  `json:"connections,omitempty"`
	Samples      map[string]spread    `json:"samples"`
	ByKind       map[string][]float64 `json:"latency_ms_by_kind,omitempty"`
	Layers       map[string]float64   `json:"layer_self_ms_per_op,omitempty"`
	SumCheck     *sumCheck            `json:"sum_check,omitempty"`
	NotMeasured  []string             `json:"not_measured,omitempty"`
	FirstFailure string               `json:"first_failure,omitempty"`
}

// sumCheck reports the traced run's layer sum check.
type sumCheck struct {
	LayerSumMS   float64 `json:"layer_sum_ms_per_op"`
	ReplayWallMS float64 `json:"replay_wall_ms_per_op"`
	Glue         float64 `json:"unattributed_share"`
	Tolerance    float64 `json:"tolerance"`
}

func main() {
	if os.Getenv(probeEnv) != "" {
		os.Exit(setupProbe(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 20, "measuring time of the run")
	trace := fl.Int("trace", 0, "1 replays the inputs through the layers and reports per-layer metrics")
	aeddBin := fl.String("aedd", "", "aedd binary built from the commit under test (aedd-sessions)")
	calibBin := fl.String("calib", "", "calib binary, the speed reference (perfbench/calib)")
	commit := fl.String("commit", "unknown", "commit under test, for the envelope")
	spans := fl.String("spans-dir", "", "directory the traced run writes its spans to (JSON lines)")
	record := fl.Bool("record", false, "regenerate "+expectedFile+" instead of running")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordExpected(expectedFile, fullSizes, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	exp, err := loadExpected(expectedFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, AeddBin: *aeddBin, CalibBin: *calibBin, Commit: *commit, Sizes: fullSizes, Expected: exp,
	}
	if *spans != "" {
		cfg.SpansOut = filepath.Join(*spans, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
	}
	env, res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if env.FirstFailure != "" {
		fmt.Fprintln(stderr, "perfbench: first failed check:", env.FirstFailure)
	}
	line, err := json.Marshal(map[string]*envelope{"envelope": env})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runConfig is one run's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	AeddBin  string
	CalibBin string
	Commit   string
	SpansOut string // traced runs write their spans here unless empty
	Sizes    sizes
	Expected map[string]expectation
}

// runWorkload generates and verifies the workload's inputs, runs it and
// assembles the result.
func runWorkload(cfg runConfig) (*envelope, *result, error) {
	inputs, err := inputsOf(cfg.Workload, cfg.Sizes)
	if err != nil {
		return nil, nil, err
	}
	exp, err := verifyInputs(cfg.Expected, cfg.Workload, inputs)
	if err != nil {
		return nil, nil, err
	}
	src, err := sourceDigest(".")
	if err != nil {
		return nil, nil, err
	}
	env := &envelope{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds.Seconds(), Trace: cfg.Trace,
		Commit: cfg.Commit, SourceSHA256: src, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		InputsDigest: exp.Digest, Inputs: len(inputs), Samples: map[string]spread{},
	}
	chk := newChecker(exp.Costs)
	total0, steal0, err := cpuTicks()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var vals map[string]float64
	var t tally
	switch cfg.Workload {
	case "aedd-sessions":
		if cfg.AeddBin == "" {
			return nil, nil, errors.New("aedd-sessions needs --aedd")
		}
		r := &sessionsRun{set: sessionPool(cfg.Sizes.Session), chk: chk, aeddBin: cfg.AeddBin, calib: cfg.CalibBin,
			rate: cfg.Sizes.Rate, seed: cfg.Seed, seconds: cfg.Seconds, spans: cfg.SpansOut, env: env}
		if cfg.Trace {
			vals, t, err = traceSessions(r)
		} else {
			vals, t, err = runSessions(r)
		}
	default:
		if cfg.Trace {
			vals, t, err = traceCold(inputs, chk, cfg.Seed, cfg.Seconds, cfg.SpansOut, env)
		} else {
			vals, t, err = runCold(inputs, chk, cfg.Seed, cfg.Seconds, cfg.CalibBin, env)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	metrics, err := fill(defs, vals)
	if err != nil {
		return nil, nil, err
	}
	env.RunSeconds = time.Since(start).Seconds()
	total1, steal1, err := cpuTicks()
	if err != nil {
		return nil, nil, err
	}
	if total1 > total0 {
		env.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	env.Attempted = t.Attempted
	if t.First != nil {
		env.FirstFailure = t.First.Error()
	}
	sort.Strings(env.NotMeasured)
	return env, &result{Correct: t.Failed == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: metrics}, nil
}

// sourceDigest fingerprints the Go sources under root (skipping
// dot-directories such as build output), standing in for a commit id
// where the checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\n%d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// record computes every input's optimal cost with a one-shot aed.Do and
// checks the output with the simulator.
func record(workload string, sz sizes) (expectation, error) {
	inputs, err := inputsOf(workload, sz)
	if err != nil {
		return expectation{}, err
	}
	e := expectation{Digest: digest(inputs), Costs: map[string]int{}}
	for _, in := range inputs {
		resp, err := aed.Do(context.Background(), in.Req)
		if err != nil {
			return e, fmt.Errorf("%s %s: %w", workload, in.Name, err)
		}
		if err := simulateCheck(in, resp.Configs); err != nil {
			return e, err
		}
		e.Costs[in.Name] = resp.ObjectiveViolations
	}
	return e, nil
}

func recordExpected(path string, sz sizes, log io.Writer) error {
	all := map[string]expectation{}
	for _, w := range workloadNames {
		start := time.Now()
		e, err := record(w, sz)
		if err != nil {
			return err
		}
		all[w] = e
		fmt.Fprintf(log, "recorded %s: %d inputs in %.1fs\n", w, len(e.Costs), time.Since(start).Seconds())
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
