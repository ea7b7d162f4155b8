package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	aed "github.com/aed-net/aed"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// checker re-checks responses independently of the program's own
// validation: the returned configs are parsed and simulated against the
// request's policies, and the objective cost must equal the recorded
// optimum. The optimum is unique, so every path that serves an input —
// cold, cache hit, rebind, re-encode — must report the same cost.
// Checks of identical outputs are memoized.
type checker struct {
	costs map[string]int
	memo  map[[32]byte]error
}

func newChecker(costs map[string]int) *checker {
	return &checker{costs: costs, memo: map[[32]byte]error{}}
}

func (c *checker) check(in Input, resp *aed.Response) error {
	want, ok := c.costs[in.Name]
	if !ok {
		return fmt.Errorf("%s: no recorded cost", in.Name)
	}
	if resp.ObjectiveViolations != want {
		return fmt.Errorf("%s: objective cost %d, recorded optimum %d", in.Name, resp.ObjectiveViolations, want)
	}
	if len(resp.Violations) != 0 {
		return fmt.Errorf("%s: program reports violations %v", in.Name, resp.Violations)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", in.Name)
	names := make([]string, 0, len(resp.Configs))
	for n := range resp.Configs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s\n%d\n%s", n, len(resp.Configs[n]), resp.Configs[n])
	}
	var key [32]byte
	copy(key[:], h.Sum(nil))
	if err, ok := c.memo[key]; ok {
		return err
	}
	err := simulateCheck(in, resp.Configs)
	c.memo[key] = err
	return err
}

// simulateCheck parses the returned configs and requires the simulator
// to find no violated policy.
func simulateCheck(in Input, configs map[string]string) error {
	if len(configs) == 0 {
		return fmt.Errorf("%s: response has no configs", in.Name)
	}
	net, err := config.ParseNetwork(configs)
	if err != nil {
		return fmt.Errorf("%s: returned configs: %w", in.Name, err)
	}
	topo, err := topology.ParseText("check", in.Req.Topology)
	if err != nil {
		return fmt.Errorf("%s: topology: %w", in.Name, err)
	}
	ps, err := policy.Parse(in.Req.Policies)
	if err != nil {
		return fmt.Errorf("%s: policies: %w", in.Name, err)
	}
	if v := simulate.New(net, topo).CheckAll(ps); len(v) != 0 {
		return fmt.Errorf("%s: returned configs violate %d policies, first: %v", in.Name, len(v), v[0])
	}
	return nil
}
