package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The calib kernel's wall and CPU time on the reference host. The
// benchmark reports its times in the reference host's units: a run's
// wall times are divided by its slowdown, the median of the kernel's
// wall times it sampled between its operations over referenceWallMS,
// and its CPU times likewise by the kernel's CPU time per copy; it runs
// one copy per CPU. On a shared host the speed a run gets drifts by a
// third and more from one run to the next, and within a run it swings
// from second to second. Other tenants that take turns on the CPUs slow
// wall time only; those that share a core's caches and pipeline slow
// CPU time too. The measured figures are kept in the envelope.
const (
	referenceWallMS = 50.0
	referenceCPUMS  = 50.0 // per copy
)

// scale says which of the host's slowdowns scales a metric, and how.
type scale struct {
	cpu  bool // by the CPU slowdown, not the wall slowdown
	rate bool // multiplied by it (a rate), not divided (a time)
}

// closedLoopScaled are the end-to-end metrics the host's speed scales
// in a closed loop.
var closedLoopScaled = map[string]scale{
	"latency_p50_ms":   {},
	"latency_p95_ms":   {},
	"cpu_ms_per_op":    {cpu: true},
	"setup_s":          {},
	"throughput_per_s": {rate: true},
}

// openLoopScaled are the same for an open loop, whose throughput is the
// offered rate whatever the host's speed.
var openLoopScaled = map[string]scale{
	"latency_p50_ms": {},
	"latency_p95_ms": {},
	"cpu_ms_per_op":  {cpu: true},
	"setup_s":        {},
}

// speedLog samples the host's speed during one run.
type speedLog struct {
	cal       *calibrator
	wall, cpu []float64     // calib times, ms
	spent     time.Duration // wall time the sampling took
}

func startSpeedLog(bin string) (*speedLog, error) {
	c, err := startCalibrator(bin)
	if err != nil {
		return nil, err
	}
	return &speedLog{cal: c}, nil
}

// samplesPerGap is how many times the kernel runs at each point a run
// samples the host's speed.
const samplesPerGap = 2

// sample runs the reference samplesPerGap times. Callers sample only
// while nothing they measure is running.
func (s *speedLog) sample() error {
	t0 := time.Now()
	defer func() { s.spent += time.Since(t0) }()
	for i := 0; i < samplesPerGap; i++ {
		wall, cpu, err := s.cal.measure()
		if err != nil {
			return err
		}
		s.wall = append(s.wall, wall)
		s.cpu = append(s.cpu, cpu)
	}
	return nil
}

func (s *speedLog) stop() error { return s.cal.stop() }

// normalize expresses the host-scaled metrics of vals in reference-host
// units, keeping the measured values and the slowdown in env.
func (s *speedLog) normalize(vals map[string]float64, scaled map[string]scale, env *envelope) {
	wall, cpu := median(s.wall)/referenceWallMS, median(s.cpu)/referenceCPUMS/float64(runtime.NumCPU())
	env.Samples["calib_wall_ms"] = spreadOf(s.wall)
	env.Samples["calib_cpu_ms"] = spreadOf(s.cpu)
	env.Slowdown = map[string]float64{"wall": wall, "cpu": cpu}
	env.Measured = map[string]float64{}
	for name, sc := range scaled {
		v, ok := vals[name]
		if !ok {
			continue
		}
		slow := wall
		if sc.cpu {
			slow = cpu
		}
		env.Measured[name] = v
		if sc.rate {
			vals[name] = v * slow
		} else {
			vals[name] = v / slow
		}
	}
}

// calibrator is a running calib child process (perfbench/calib): the
// speed reference the benchmark runs between the operations it times.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startCalibrator spawns bin and runs its kernel a few times untimed,
// so that measurements start from a warm process.
func startCalibrator(bin string) (*calibrator, error) {
	if bin == "" {
		return nil, errors.New("no calib binary (--calib)")
	}
	cmd := exec.Command(bin)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calib: %w", err)
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	for i := 0; i < 3; i++ {
		if _, _, err := c.measure(); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// measure runs the reference kernel, one copy per CPU, and returns its
// wall and CPU time in milliseconds.
func (c *calibrator) measure() (wall, cpu float64, err error) {
	if _, err := io.WriteString(c.in, "run\n"); err != nil {
		return 0, 0, fmt.Errorf("calib: %w", err)
	}
	if !c.out.Scan() {
		return 0, 0, fmt.Errorf("calib exited: %v", c.out.Err())
	}
	f := strings.Fields(c.out.Text())
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("calib: malformed answer %q", c.out.Text())
	}
	w, err1 := strconv.ParseInt(f[0], 10, 64)
	u, err2 := strconv.ParseInt(f[1], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("calib: malformed answer %q", c.out.Text())
	}
	return ms(time.Duration(w)), ms(time.Duration(u)), nil
}

// stop closes calib's input, which ends it, and waits for it to exit.
func (c *calibrator) stop() error {
	if c.cmd.ProcessState != nil {
		return nil
	}
	c.in.Close()
	return c.cmd.Wait()
}
