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
	ids    []string // all ground IDs
	lanOf  map[string]string
	nextID int
}

// NewWorkload builds a deterministic workload generator over the scenario's
// ground hosts. Every request is inter-LAN, so the scenario must contribute
// ground hosts from at least two local networks: with none, Next would
// panic in rand.Intn(0), and with a single LAN it would spin forever
// rejecting intra-LAN draws — both now surface as a constructor error.
func NewWorkload(sc *Scenario, seed int64) (*Workload, error) {
	w := &Workload{
		rng:   rand.New(rand.NewSource(seed)),
		lanOf: make(map[string]string),
	}
	lans := make(map[string]bool)
	for _, lan := range sc.LANs {
		for _, id := range sc.GroundIDs[lan.Name] {
			w.ids = append(w.ids, id)
			w.lanOf[id] = lan.Name
			lans[lan.Name] = true
		}
	}
	if len(lans) < 2 {
		return nil, fmt.Errorf("qntn: workload needs ground hosts in at least two local networks, scenario has %d host(s) across %d network(s)", len(w.ids), len(lans))
	}
	return w, nil
}

// Next returns one inter-LAN request.
func (w *Workload) Next() netsim.Request {
	for {
		src := w.ids[w.rng.Intn(len(w.ids))]
		dst := w.ids[w.rng.Intn(len(w.ids))]
		if w.lanOf[src] == w.lanOf[dst] {
			continue
		}
		w.nextID++
		return netsim.Request{ID: w.nextID, Src: src, Dst: dst}
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
	sl, ok1 := w.lanOf[r.Src]
	dl, ok2 := w.lanOf[r.Dst]
	if !ok1 || !ok2 {
		return fmt.Errorf("qntn: request %d references unknown host", r.ID)
	}
	if sl == dl {
		return fmt.Errorf("qntn: request %d is intra-LAN (%s)", r.ID, sl)
	}
	return nil
}
