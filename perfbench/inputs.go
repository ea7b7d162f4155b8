package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	aed "github.com/aed-net/aed"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/topology"
)

// Input is one generated synthesis problem: the textual request the
// program receives, under the name its expected objective cost is
// recorded with.
type Input struct {
	Name string
	Req  aed.Request
}

// Each workload draws from a fixed pool of inputs generated from the
// pool seeds below. The run's --seed only orders the pool and, for
// aedd-sessions, draws the request schedule and edits, so every run sees
// the same mix of problems and every output has a recorded cost to be
// checked against.

// fabricSize sizes the fabric-cold pool: leaf–spine OSPF fabrics with
// role filters whose policies are the inferred reachability set with
// Blocks seeded pairs turned into block policies, one fabric per
// variant.
type fabricSize struct{ Leaves, Blocks, Variants int }

// sessionSize sizes the aedd-sessions problem set: one leaf–spine
// fabric served to Sessions tenant sessions. Each session blocks its
// own Blocks seeded pairs, has Flips route filters whose local
// preference an edit toggles, and Swaps policies an edit toggles
// between reach and block.
type sessionSize struct{ Leaves, Sessions, Blocks, Flips, Swaps int }

var (
	fabricFull  = fabricSize{Leaves: 12, Blocks: 12, Variants: 4}
	sessionFull = sessionSize{Leaves: 8, Sessions: 4, Blocks: 4, Flips: 2, Swaps: 3}
)

// leafSpine builds the fabric topogen -kind leafspine -n leaves builds.
func leafSpine(leaves int) (*topology.Topology, *config.Network) {
	topo := topology.LeafSpine(leaves, (leaves+2)/3, 1)
	net := configgen.Generate(topo, configgen.Options{
		Protocol: config.OSPF, WithRoleFilters: true, Seed: 1,
	})
	return topo, net
}

// blockPairs turns k seeded pairs of the reachability set into block
// policies and returns the new policy list (same order) and the indices
// it changed.
func blockPairs(reach []policy.Policy, k int, rng *rand.Rand) ([]policy.Policy, []int) {
	idx := rng.Perm(len(reach))[:k]
	sort.Ints(idx)
	ps := append([]policy.Policy(nil), reach...)
	for _, i := range idx {
		ps[i].Kind = policy.Blocking
	}
	return ps, idx
}

func request(net *config.Network, topo *topology.Topology, ps []policy.Policy) aed.Request {
	return aed.Request{
		Configs:  config.PrintNetwork(net),
		Topology: aed.FormatTopology(topo),
		Policies: policy.Format(ps),
	}
}

func fabricPool(sz fabricSize) []Input {
	topo, net := leafSpine(sz.Leaves)
	reach := simulate.New(net, topo).InferReachability()
	var out []Input
	for v := 0; v < sz.Variants; v++ {
		ps, _ := blockPairs(reach, sz.Blocks, rand.New(rand.NewSource(int64(100+v))))
		req := request(net, topo, ps)
		req.ObjectiveSet = "min-devices"
		out = append(out, Input{Name: fmt.Sprintf("fabric%d", v), Req: req})
	}
	return out
}

// sessionState is one point of a session's edit walk: which editable
// route filter has its local preference flipped and which swappable
// policy is swapped (-1 for none).
type sessionState struct{ Session, Flip, Swap int }

func (s sessionState) name() string {
	return fmt.Sprintf("s%d/f%d/w%d", s.Session, s.Flip, s.Swap)
}

// sessionSet is the aedd-sessions problem set: every state each
// session's walk can reach, as ready-to-send requests.
type sessionSet struct {
	Size   sessionSize
	Inputs map[sessionState]Input
}

// lpBase and lpFlip are the two local-preference values an edit toggles
// an editable rule between; the anchor filter pins both into the rank
// domain so a flip is a volatile (tier-2) edit.
const (
	lpBase = 110
	lpFlip = 120
)

// sessionFabric adds to the fabric one editable route filter per flip
// (rf_edit<i> on spine i%spines, inbound from leaf i, setting the local
// preference of leaf i's subnet) and an unattached anchor filter on
// each spine. flip selects the filter whose rule carries lpFlip.
func sessionFabric(sz sessionSize, flip int) (*topology.Topology, *config.Network) {
	topo, net := leafSpine(sz.Leaves)
	spines := (sz.Leaves + 2) / 3
	for s := 0; s < spines; s++ {
		sp := net.Routers[fmt.Sprintf("spine%d", s)]
		sp.RouteFilters = append(sp.RouteFilters, &config.RouteFilter{Name: "rf_anchor", Rules: []*config.RouteRule{
			{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: lpBase},
			{Permit: true, Prefix: prefix.MustParse("10.200.0.0/24"), LocalPref: lpFlip},
		}})
	}
	for i := 0; i < sz.Flips; i++ {
		leaf := fmt.Sprintf("leaf%d", i)
		sp := net.Routers[fmt.Sprintf("spine%d", i%spines)]
		lp := lpBase
		if i == flip {
			lp = lpFlip
		}
		name := fmt.Sprintf("rf_edit%d", i)
		sp.RouteFilters = append(sp.RouteFilters, &config.RouteFilter{Name: name, Rules: []*config.RouteRule{
			{Permit: true, Prefix: topo.SubnetsOf(leaf)[0], LocalPref: lp},
		}})
		sp.Process(config.OSPF).Adjacency(leaf).InFilter = name
	}
	return topo, net
}

func sessionPool(sz sessionSize) sessionSet {
	set := sessionSet{Size: sz, Inputs: map[sessionState]Input{}}
	topo, base := sessionFabric(sz, -1)
	reach := simulate.New(base, topo).InferReachability()
	for s := 0; s < sz.Sessions; s++ {
		rng := rand.New(rand.NewSource(int64(200 + s)))
		ps, blocked := blockPairs(reach, sz.Blocks, rng)
		// Swappable policies: blocked pairs (swapped back to reach) and
		// reachable pairs (swapped to block), alternately.
		isBlocked := map[int]bool{}
		for _, i := range blocked {
			isBlocked[i] = true
		}
		var open []int
		for _, i := range rng.Perm(len(ps)) {
			if !isBlocked[i] {
				open = append(open, i)
			}
		}
		swaps := make([]int, sz.Swaps)
		for w := range swaps {
			if w%2 == 0 {
				swaps[w] = blocked[w/2]
			} else {
				swaps[w] = open[w/2]
			}
		}
		for f := -1; f < sz.Flips; f++ {
			_, net := sessionFabric(sz, f)
			for w := -1; w < sz.Swaps; w++ {
				sps := append([]policy.Policy(nil), ps...)
				if w >= 0 {
					p := &sps[swaps[w]]
					if p.Kind == policy.Blocking {
						p.Kind = policy.Reachability
					} else {
						p.Kind = policy.Blocking
					}
				}
				req := request(net, topo, sps)
				req.Tenant = fmt.Sprintf("tenant%d", s)
				req.Session = "main"
				req.Options.MinimizeLines = true
				st := sessionState{Session: s, Flip: f, Swap: w}
				set.Inputs[st] = Input{Name: st.name(), Req: req}
			}
		}
	}
	return set
}

// list returns the set's inputs in a stable order.
func (s sessionSet) list() []Input {
	var out []Input
	for _, in := range s.Inputs {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// digest fingerprints an input set: any change to the generators or to
// the program code they call (configgen, topology, the simulator's
// policy inference, the printers) changes it.
func digest(inputs []Input) string {
	h := sha256.New()
	for _, in := range inputs {
		b, err := json.Marshal(in.Req)
		if err != nil {
			panic(err) // a Request always marshals
		}
		fmt.Fprintf(h, "%s\n%d\n", in.Name, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expectation is what the benchmark recorded for one workload's input
// set: its digest and each input's optimal objective cost.
type expectation struct {
	Digest string         `json:"digest"`
	Costs  map[string]int `json:"costs"`
}

// expectedFile holds the recorded expectations, next to this source.
const expectedFile = "perfbench/expected.json"

func loadExpected(path string) (map[string]expectation, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]expectation
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// verifyInputs is the drift guard: it fails unless the generated inputs
// hash to the recorded digest and every input has a recorded cost.
func verifyInputs(exp map[string]expectation, workload string, inputs []Input) (expectation, error) {
	e, ok := exp[workload]
	if !ok {
		return e, fmt.Errorf("no recorded expectation for workload %s", workload)
	}
	if d := digest(inputs); d != e.Digest {
		return e, fmt.Errorf("workload %s: generated inputs drifted: digest %s, recorded %s", workload, d, e.Digest)
	}
	for _, in := range inputs {
		if _, ok := e.Costs[in.Name]; !ok {
			return e, fmt.Errorf("workload %s: no recorded cost for input %s", workload, in.Name)
		}
	}
	return e, nil
}
