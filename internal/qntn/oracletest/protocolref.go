package oracletest

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
	"qntn/internal/routing"
	"qntn/internal/stats"
)

// This file is the slow, obviously-correct scalar reference for the
// entanglement-protocol layer. ReferenceProtocolServe re-derives the
// protocol-enabled serve experiment from first principles — a fresh routing
// snapshot per step (Scenario.Routes, no pooling), clone-and-delete disjoint
// route extraction with the map-packed baseline Dijkstra, and verbatim
// re-implementations of the Werner closed forms and the distillation
// schedule — sharing with the production path only the seed derivation
// (protocol.PairKey / ChainSeed / Draw), which both sides must agree on by
// definition. The differential matrix in the qntn package pins the pooled
// fast path (DisjointScratch, EdgeEtasInto, the byte-fold pair key, the
// insertion-sorted attempt buffer) reflect.DeepEqual-identical to this
// reference across archetypes, fault mixes, both execution engines and
// several worker counts.

// refClampWerner forces a projection fidelity into [1/4, 1], NaN to floor —
// protocol.ClampWerner restated.
func refClampWerner(f float64) float64 {
	if math.IsNaN(f) || f < 0.25 {
		return 0.25
	}
	if f > 1 {
		return 1
	}
	return f
}

// refWernerP is the Werner mixing parameter p = (4F−1)/3.
func refWernerP(w float64) float64 { return (4*w - 1) / 3 }

// refSwapWerner is the Bell-state-measurement composition: mixing
// parameters multiply.
func refSwapWerner(w1, w2 float64) float64 {
	p := refWernerP(refClampWerner(w1)) * refWernerP(refClampWerner(w2))
	return (1 + 3*p) / 4
}

// refDephaseWerner applies both-qubit phase damping over the storage wait:
// g = exp(−2·wait/T2), F = p·(1+g)/2 + (1−p)/4.
func refDephaseWerner(w float64, wait, t2 time.Duration) float64 {
	cw := refClampWerner(w)
	if t2 <= 0 || wait <= 0 {
		return cw
	}
	g := math.Exp(-2 * wait.Seconds() / t2.Seconds())
	p := refWernerP(cw)
	return p*(1+g)/2 + (1-p)/4
}

// refPurifyWerner is one DEJMPS-style recurrence round on Werner inputs.
func refPurifyWerner(w1, w2 float64) (out, pSuccess float64) {
	f1, f2 := refClampWerner(w1), refClampWerner(w2)
	num := f1*f2 + (1-f1)*(1-f2)/9
	den := f1*f2 + f1*(1-f2)/3 + f2*(1-f1)/3 + 5*(1-f1)*(1-f2)/9
	if math.IsNaN(den) || den <= 0 {
		return f1, 0
	}
	return num / den, den
}

// refDistill is the greedy pumping schedule over descending-sorted attempt
// fidelities: bank the best pair, pump each further pair into it, keep
// max(output, bank) on an accepted round, and on a failed round both pairs
// are destroyed so the next attempt becomes the new bank.
func refDistill(att []float64, chainSeed int64) (w float64, ok bool, rounds, accepted int) {
	if len(att) == 0 {
		return 0, false, 0, 0
	}
	bank := att[0]
	valid := true
	var r uint64
	for i := 1; i < len(att); i++ {
		if !valid {
			bank = att[i]
			valid = true
			continue
		}
		fOut, pOK := refPurifyWerner(bank, att[i])
		rounds++
		if protocol.Draw(chainSeed, protocol.PurifyStream, r) < pOK {
			accepted++
			if fOut > bank {
				bank = fOut
			}
		} else {
			valid = false
		}
		r++
	}
	return bank, valid, rounds, accepted
}

// DisjointPathsReference is clone-and-delete disjoint route extraction, the
// same procedure the routing package's scratch differential test uses as
// its reference: the primary path first, then repeatedly delete every
// incident edge of consumed interior vertices (and the direct src–dst edge
// when the consumed path is a single hop) and re-run the baseline Dijkstra
// on −log η until the budget is filled or the endpoints disconnect.
func DisjointPathsReference(g *routing.Graph, primary []string, k int) ([][]string, error) {
	work := g.Clone()
	src, dst := primary[0], primary[len(primary)-1]
	consume := func(path []string) {
		for i := 1; i+1 < len(path); i++ {
			for _, nb := range work.Neighbors(path[i]) {
				work.RemoveEdge(path[i], nb)
			}
		}
		if len(path) == 2 {
			work.RemoveEdge(src, dst)
		}
	}
	paths := [][]string{primary}
	consume(primary)
	for len(paths) < k {
		res, err := routing.Dijkstra(work, src, routing.NegLogEtaCost(0))
		if err != nil {
			return nil, err
		}
		path, err := res.PathTo(dst)
		if err != nil {
			break // unreachable in the residual graph: done
		}
		paths = append(paths, path)
		consume(path)
	}
	return paths, nil
}

// refProtocolVerdict evaluates the protocol layer for one routed request:
// the naive restatement of the production pipeline. A single-edge route
// bypasses the layer (no memory storage, no swaps); otherwise each disjoint
// route attempts an elementary pair per hop connected by drawn swaps, the
// survivor dephases for the route's heralding latency, and the surviving
// attempts are distilled best-first.
func refProtocolVerdict(sc *qntn.Scenario, g *routing.Graph, path []string, req netsim.Request, at time.Duration) (served bool, fidelity, primaryEta float64, err error) {
	model := sc.Params.FidelityModel
	cfg := sc.Params.Protocol
	if len(path) <= 2 {
		etas, err := g.EdgeEtas(path)
		if err != nil {
			return false, 0, 0, err
		}
		return true, qntn.PathFidelity(etas, model), refProduct(etas), nil
	}
	chainSeed := protocol.ChainSeed(cfg.Seed, protocol.PairKey(req.Src, req.Dst, req.ID, int64(at)))
	paths, err := DisjointPathsReference(g, path, cfg.Paths())
	if err != nil {
		return false, 0, 0, err
	}
	var att []float64
	for j, p := range paths {
		etas, err := g.EdgeEtas(p)
		if err != nil {
			return false, 0, 0, err
		}
		if j == 0 {
			primaryEta = refProduct(etas)
		}
		w := refClampWerner(square(qntn.PathFidelity(etas[:1], model)))
		ok := true
		for s := 0; s+1 < len(etas); s++ {
			if protocol.Draw(chainSeed, uint64(j), uint64(s)) >= cfg.SwapSuccess {
				ok = false
				break
			}
			w = refSwapWerner(w, refClampWerner(square(qntn.PathFidelity(etas[s+1:s+2], model))))
		}
		if !ok {
			continue
		}
		// A single-hop attempt (a disjoint alternative that happens to be
		// the direct src–dst edge) never sits in memory waiting for a swap
		// partner, so only multi-hop survivors dephase — mirroring the
		// production pipeline's len(etas) >= 2 guard.
		if len(etas) >= 2 {
			lengthM, err := sc.PathLengthM(p, at)
			if err != nil {
				return false, 0, 0, err
			}
			w = refDephaseWerner(w, qntn.HeraldingLatency(lengthM), cfg.MemoryT2)
		}
		att = append(att, w)
	}
	sort.SliceStable(att, func(i, j int) bool { return att[i] > att[j] })
	w, ok, _, _ := refDistill(att, chainSeed)
	if !ok {
		return false, 0, primaryEta, nil
	}
	r := math.Sqrt(refClampWerner(w))
	return true, r, primaryEta, nil
}

func square(f float64) float64 { return f * f }

func refProduct(xs []float64) float64 {
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return p
}

// ReferenceProtocolServe re-derives the protocol-enabled serve experiment
// naively: the same workload draws and sample instants as RunServe, a fresh
// unpooled routing snapshot per step, and the scalar protocol reference
// above per served request. The result must be reflect.DeepEqual-identical
// to Scenario.RunServe on both execution engines.
func ReferenceProtocolServe(sc *qntn.Scenario, cfg qntn.ServeConfig) (*qntn.ServeResult, error) {
	if cfg.RequestsPerStep <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("oracletest: serve config requires positive requests and steps")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = orbit.Day
	}
	res := &qntn.ServeResult{Config: cfg}
	wl, err := qntn.NewWorkload(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	if gap <= 0 {
		gap = sc.Params.TopologyStep()
	}
	var fids, etas []float64
	for step := 0; step < cfg.Steps; step++ {
		at := time.Duration(step) * gap
		tables, graph, err := sc.Routes(at)
		if err != nil {
			return nil, err
		}
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			out := netsim.Outcome{Request: req, At: at}
			if tables.Reachable(req.Src, req.Dst) {
				path, err := tables.Path(req.Src, req.Dst)
				if err != nil {
					return nil, err
				}
				served, fid, primaryEta, err := refProtocolVerdict(sc, graph, path, req, at)
				if err != nil {
					return nil, err
				}
				if served {
					out.Served = true
					out.Path = path
					out.EndToEndEta = primaryEta
					out.Fidelity = fid
					fids = append(fids, fid)
					etas = append(etas, primaryEta)
				}
			}
			res.Metrics.Record(out)
		}
	}
	res.ServedPercent = 100 * res.Metrics.ServedFraction()
	res.MeanFidelity = res.Metrics.MeanServedFidelity()
	res.FidelitySummary = stats.Summarize(fids)
	res.MeanPathEta = stats.Mean(etas)
	return res, nil
}

// AssertProtocolServeEqual runs the protocol differential for one
// (builder, params, config) point: the stepped fast path, the event-driven
// fast path and the scalar reference must all be DeepEqual-identical. It
// returns the reference result so callers can assert non-degeneracy.
func AssertProtocolServeEqual(t testing.TB, build Builder, p qntn.Params, cfg qntn.ServeConfig) *qntn.ServeResult {
	t.Helper()
	if !p.Protocol.Enabled() {
		t.Fatalf("oracletest: protocol differential needs an enabled Params.Protocol")
	}
	stepped, event := Pair(t, build, p)
	want, err := ReferenceProtocolServe(stepped, cfg)
	if err != nil {
		t.Fatalf("oracletest: scalar protocol reference: %v", err)
	}
	got, err := stepped.RunServe(cfg)
	if err != nil {
		t.Fatalf("oracletest: stepped protocol serve: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("oracletest: stepped protocol serve diverged from scalar reference\n got: %+v\nwant: %+v", got, want)
	}
	gotEvent, err := event.RunServe(cfg)
	if err != nil {
		t.Fatalf("oracletest: event-driven protocol serve: %v", err)
	}
	if !reflect.DeepEqual(gotEvent, want) {
		t.Fatalf("oracletest: event-driven protocol serve diverged from scalar reference\n got: %+v\nwant: %+v", gotEvent, want)
	}
	return want
}
