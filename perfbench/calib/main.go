// Command calib is the benchmark's speed reference: a fixed piece of
// work that does not depend on the program under test. For each line it
// reads from stdin it runs one copy of its kernel per CPU, all at once,
// and answers with the wall time and the process's CPU time they took,
// in nanoseconds.
//
// The benchmark runs it between the operations it measures and divides
// their times by the host's current speed, so that a host that is
// slower in one run than in another (other tenants, CPU frequency)
// does not read as a slower program. It imports only the standard
// library, so a change to the program cannot change the reference.
package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

func main() {
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	n := runtime.NumCPU()
	for in.Scan() {
		var wg sync.WaitGroup
		sums := make([]uint64, n)
		cpu0, start := cpuTime(), time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sums[w] = kernel(uint64(w) + 1)
			}(w)
		}
		wg.Wait()
		el, cpu := time.Since(start), cpuTime()-cpu0
		if sums[0] == 0 {
			fmt.Fprintln(os.Stderr, "calib: kernel lost its work")
			os.Exit(1)
		}
		fmt.Fprintln(out, el.Nanoseconds(), cpu.Nanoseconds())
		out.Flush()
	}
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "calib:", err)
		os.Exit(1)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// node is a heap object with the shape of the program's formula and
// config nodes: a key, a few children and a small payload.
type node struct {
	key  string
	kids []*node
	vals []int32
}

// kernel is the mix the synthesis path spends its time on: interning
// strings in maps, building and walking pointer graphs that the garbage
// collector has to trace, sorting, and a branchy propagation loop.
func kernel(seed uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const nodes = 24000
	intern := map[string]*node{}
	all := make([]*node, 0, nodes)
	for i := 0; i < nodes; i++ {
		k := "n" + strconv.FormatUint(next()%(nodes/2), 36) + "/" + strconv.Itoa(i%61)
		n, ok := intern[k]
		if !ok {
			n = &node{key: k, vals: make([]int32, 4+i%13)}
			intern[k] = n
		}
		for j := range n.vals {
			n.vals[j] += int32(next() % 1024)
		}
		if len(all) > 0 {
			for c := 0; c < 3; c++ {
				n.kids = append(n.kids, all[next()%uint64(len(all))])
			}
		}
		all = append(all, n)
	}
	// Walk the graph from every tenth node, as a propagation would.
	var sum uint64
	seen := make(map[*node]bool, 64)
	for i := 0; i < len(all); i += 10 {
		stack := []*node{all[i]}
		clear(seen)
		for len(stack) > 0 && len(seen) < 48 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			sum += uint64(n.vals[0])
			if n.vals[len(n.vals)-1]&1 == 0 {
				stack = append(stack, n.kids...)
			}
		}
	}
	keys := make([]string, 0, len(intern))
	for k := range intern {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys[:16] {
		sum += uint64(len(k))
	}
	return sum
}
