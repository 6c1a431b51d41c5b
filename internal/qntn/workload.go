package qntn

import (
	"fmt"
	"math/rand"

	"qntn/internal/netsim"
)

// Workload generates the paper's request pattern: uniformly random
// entanglement distribution requests whose source and destination lie in
// different local networks.
type Workload struct {
	rng    *rand.Rand
	sc     *Scenario
	hosts  []int // node indices of every LAN host, LANs in order
	nextID int
}

// NewWorkload builds a deterministic workload generator over the scenario's
// ground hosts. Every request is inter-LAN, so the scenario must contribute
// ground hosts from at least two local networks: with none, Next would
// panic in rand.Intn(0), and with a single LAN it would spin forever
// rejecting intra-LAN draws — both now surface as a constructor error.
func NewWorkload(sc *Scenario, seed int64) (*Workload, error) {
	hosts, err := sc.interLANHosts("workload")
	if err != nil {
		return nil, err
	}
	return &Workload{rng: rand.New(rand.NewSource(seed)), sc: sc, hosts: hosts}, nil
}

// interLANHosts returns the node index of every LAN host, LANs in
// declaration order and hosts in Table I order within each. Every request
// is inter-LAN, so fewer than two LANs with hosts is an error naming what
// needs them.
func (sc *Scenario) interLANHosts(what string) ([]int, error) {
	var hosts []int
	nets := 0
	for _, hs := range sc.lanHosts {
		hosts = append(hosts, hs...)
		if len(hs) > 0 {
			nets++
		}
	}
	if nets < 2 {
		return nil, fmt.Errorf("qntn: %s needs ground hosts in at least two local networks, scenario has %d host(s) across %d network(s)", what, len(hosts), nets)
	}
	return hosts, nil
}

// Next returns one inter-LAN request.
func (w *Workload) Next() netsim.Request {
	tab := &w.sc.table
	for {
		src := w.hosts[w.rng.Intn(len(w.hosts))]
		dst := w.hosts[w.rng.Intn(len(w.hosts))]
		if tab.lan[src] == tab.lan[dst] {
			continue
		}
		w.nextID++
		return netsim.Request{ID: w.nextID, Src: tab.nodes[src].ID(), Dst: tab.nodes[dst].ID()}
	}
}

// Batch returns n inter-LAN requests.
func (w *Workload) Batch(n int) []netsim.Request {
	reqs := make([]netsim.Request, n)
	for i := range reqs {
		reqs[i] = w.Next()
	}
	return reqs
}

// Validate checks a request against the scenario's inter-LAN constraint.
func (w *Workload) Validate(r netsim.Request) error {
	src, dst := w.sc.lanOf(r.Src), w.sc.lanOf(r.Dst)
	if src < 0 || dst < 0 {
		return fmt.Errorf("qntn: request %d references unknown host", r.ID)
	}
	if src == dst {
		return fmt.Errorf("qntn: request %d is intra-LAN (%s)", r.ID, w.sc.LANs[src].Name)
	}
	return nil
}
