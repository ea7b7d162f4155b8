package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the setup probe the cold
// workloads start, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(setupProbe(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// tinySizes are the self-test's problem sizes: every workload's code
// path on inputs that solve in milliseconds.
var tinySizes = sizes{
	Fabric:  fabricSize{Leaves: 3, Blocks: 2, Variants: 2},
	Session: sessionSize{Leaves: 4, Sessions: 2, Blocks: 1, Flips: 1, Swaps: 2},
	Rate:    100,
}

// benchmarkJSON is the part of BENCHMARK.json the self-test compares
// with the benchmark's own metric table.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark defines %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	for _, d := range perLayer {
		if d.Moves == "" || d.On == "" {
			t.Errorf("per-layer metric %s does not say what it should move and where", d.Name)
		}
	}
}

// TestRecordedInputs is the drift guard on the full-size inputs: the
// generators must still produce the input sets expected.json recorded.
func TestRecordedInputs(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		inputs, err := inputsOf(w, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verifyInputs(exp, w, inputs); err != nil {
			t.Error(err)
		}
	}
}

func TestDriftGuardRejectsChangedInputs(t *testing.T) {
	inputs, err := inputsOf("fabric-cold", tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	exp := map[string]expectation{"fabric-cold": {Digest: digest(inputs), Costs: map[string]int{}}}
	for _, in := range inputs {
		exp["fabric-cold"].Costs[in.Name] = 0
	}
	if _, err := verifyInputs(exp, "fabric-cold", inputs); err != nil {
		t.Fatalf("unchanged inputs rejected: %v", err)
	}
	inputs[0].Req.Policies += "block 10.0.0.0/24 -> 10.1.0.0/24\n"
	if _, err := verifyInputs(exp, "fabric-cold", inputs); err == nil {
		t.Fatal("changed inputs accepted")
	}
}

// TestTinyWorkloads runs every workload untraced and traced on tiny
// inputs: every metric BENCHMARK.json names must be emitted with its
// unit, every output must pass the checks, and the traced layer self
// times must sum to the replay wall time within the stated tolerance.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds aedd and solves every tiny workload")
	}
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	aeddBin, calibBin := filepath.Join(dir, "aedd"), filepath.Join(dir, "calib")
	if out, err := exec.Command("go", "build", "-o", aeddBin, "github.com/aed-net/aed/cmd/aedd").CombinedOutput(); err != nil {
		t.Fatalf("build aedd: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", calibBin, "./calib").CombinedOutput(); err != nil {
		t.Fatalf("build calib: %v\n%s", err, out)
	}
	exp := map[string]expectation{}
	for _, w := range workloadNames {
		e, err := record(w, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		exp[w] = e
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Workload: w, Seed: 7, Seconds: 500 * time.Millisecond, Trace: trace,
				AeddBin: aeddBin, CalibBin: calibBin, Commit: "test", Sizes: tinySizes, Expected: exp}
			env, res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w, trace, res.Correct, res.Attempted, res.Failed, env.FirstFailure)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s emitted as %+v (present %v), want unit %s", w, trace, d.Name, m, ok, d.Unit)
				}
			}
			if !trace {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			sc := env.SumCheck
			if sc == nil {
				t.Fatalf("%s: traced run reports no sum check", w)
			}
			t.Logf("%s: layers cover %.3f of %.3f ms per op", w, sc.LayerSumMS, sc.ReplayWallMS)
			if w == "aedd-sessions" {
				// Every kind of request was served the way its edit
				// allows: hits, tier-2 rebinds for every flip, re-encodes.
				for _, name := range []string{"core.hit_ms", "core.rebind_ms", "core.reencode_ms"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("no %s request was replayed", name)
					}
				}
				if r := res.Metrics["core.rebind_ratio"].Value; r != 1 {
					t.Errorf("core.rebind_ratio = %v, want every flip rebound", r)
				}
			}
			if sc.Glue < 0 || sc.Glue > sc.Tolerance {
				t.Errorf("%s: layer self times cover %.3f of %.3f ms per op, outside tolerance %.2f", w, sc.LayerSumMS, sc.ReplayWallMS, sc.Tolerance)
			}
		}
	}
}

// TestScheduleOffersSameWork pins the open loop's design: whatever the
// seed, every session gets the same requests of each kind, every flip
// and swap is applied and reverted equally often, and swaps are spread
// over the run.
func TestScheduleOffersSameWork(t *testing.T) {
	// A flip or swap request is identified by the filter or policy it
	// leaves toggled (-1 once it reverts one).
	type key struct {
		session, target int
		kind            string
	}
	count := func(seed int64) (map[key]int, []arrival) {
		sched := schedule(fullSizes.Session, seed, fullSizes.Rate, 25*time.Second)
		m := map[key]int{}
		for _, a := range sched {
			k := key{session: a.State.Session, kind: a.Kind}
			switch a.Kind {
			case kindFlip:
				k.target = a.State.Flip
			case kindSwap:
				k.target = a.State.Swap
			}
			m[k]++
		}
		return m, sched
	}
	a, sched := count(1)
	b, _ := count(2)
	if len(a) != len(b) {
		t.Fatalf("seeds 1 and 2 offer %d and %d distinct requests", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Errorf("%+v: seed 1 sends it %d times, seed 2 %d", k, n, b[k])
		}
	}
	// Evenly spread swaps are a run's length over their number apart,
	// less at most two request slots (rounding of their positions and the
	// jitter of each due time).
	swaps := 0
	for _, x := range sched {
		if x.Kind == kindSwap {
			swaps++
		}
	}
	slot := 25 * time.Second / time.Duration(len(sched))
	least := 25*time.Second/time.Duration(swaps) - 2*slot
	var last time.Duration = -time.Hour
	for _, x := range sched {
		if x.Kind != kindSwap {
			continue
		}
		if x.Due-last < least {
			t.Errorf("swaps %v apart, want at least %v", x.Due-last, least)
		}
		last = x.Due
	}
}

// TestNormalizeScalesByHostSpeed pins how the host's slowdown enters
// the end-to-end metrics: wall times divide by the wall slowdown, CPU
// time by the CPU slowdown, a closed loop's rate multiplies by the wall
// slowdown, and the rest stay as measured.
func TestNormalizeScalesByHostSpeed(t *testing.T) {
	cpus := float64(runtime.NumCPU())
	sp := &speedLog{
		wall: []float64{1.5 * referenceWallMS, 2.5 * referenceWallMS},
		cpu:  []float64{cpus * 4 * referenceCPUMS},
	}
	for _, tc := range []struct {
		scaled         map[string]scale
		wantThroughput float64
	}{{closedLoopScaled, 6}, {openLoopScaled, 3}} {
		env := &envelope{Samples: map[string]spread{}}
		vals := map[string]float64{"latency_p50_ms": 10, "cpu_ms_per_op": 20, "throughput_per_s": 3, "peak_rss_mb": 7}
		sp.normalize(vals, tc.scaled, env)
		want := map[string]float64{"latency_p50_ms": 5, "cpu_ms_per_op": 5, "throughput_per_s": tc.wantThroughput, "peak_rss_mb": 7}
		for name, w := range want {
			if got := vals[name]; math.Abs(got-w) > 1e-9 {
				t.Errorf("%s = %v, want %v", name, got, w)
			}
		}
		if env.Measured["latency_p50_ms"] != 10 || env.Measured["cpu_ms_per_op"] != 20 {
			t.Errorf("measured values not kept: %v", env.Measured)
		}
	}
}
