package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelDefaultOverlaps pins the documented default: Options{}
// solves instances concurrently, bounded by GOMAXPROCS. A regression
// that flips the default to sequential (or ignores Workers) fails here.
func TestParallelDefaultOverlaps(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// measure runs f over n instances and reports the peak number of
	// instances in flight at once.
	measure := func(n int, opts Options) int {
		var inFlight, peak atomic.Int64
		runInstances(n, opts, nil, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		})
		return int(peak.Load())
	}

	if p := measure(8, Options{}); p < 2 {
		t.Errorf("default options: peak in-flight = %d, want >= 2 (parallel default)", p)
	}
	if p := measure(8, Options{Workers: 3}); p > 3 {
		t.Errorf("Workers=3: peak in-flight = %d, want <= 3", p)
	}
	if p := measure(8, Options{Sequential: true}); p != 1 {
		t.Errorf("Sequential: peak in-flight = %d, want 1", p)
	}
}

// TestRunInstancesSequentialKeepsOrder pins that the sequential path
// ignores the estimate ordering and runs in deterministic input order.
func TestRunInstancesSequentialKeepsOrder(t *testing.T) {
	var got []int
	est := []int64{1, 9, 3, 7}
	runInstances(4, Options{Sequential: true}, est, func(i int) {
		got = append(got, i)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("sequential order = %v, want identity order", got)
		}
	}
}

// TestRunInstancesLongestFirst pins the LPT schedule: with a single
// worker, instances must start in descending estimated-cost order.
func TestRunInstancesLongestFirst(t *testing.T) {
	var mu sync.Mutex
	var got []int
	est := []int64{1, 5, 3}
	runInstances(3, Options{Workers: 1}, est, func(i int) {
		mu.Lock()
		got = append(got, i)
		mu.Unlock()
	})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LPT order = %v, want %v", got, want)
		}
	}
}

// TestRunInstancesPanicReachesCaller pins that a panic in a task on a
// worker goroutine is re-raised on the caller's goroutine, where a
// recover can contain it, instead of killing the process.
func TestRunInstancesPanicReachesCaller(t *testing.T) {
	got := func() (p any) {
		defer func() { p = recover() }()
		runInstances(8, Options{Workers: 2}, nil, func(i int) {
			if i == 1 {
				panic("task fault")
			}
		})
		return nil
	}()
	if got == nil || !strings.Contains(fmt.Sprint(got), "task fault") {
		t.Fatalf("recovered %v, want the task's panic", got)
	}
}
