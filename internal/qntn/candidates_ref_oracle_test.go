package qntn_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/qntn/oracletest"
)

// TestCandidatePairsMatchReference pins the ISL-row candidate gather
// against the retired grid gather on the +grid Walkers, faults off and on:
// at every instant the production list must be the reference list minus
// exactly the satellite↔satellite pairs the allowlist forbids, strictly
// ascending, and the snapshot built from it must equal the one built from
// the reference list — same graph, same admitted, horizon-reject and
// range-reject counts — with IndexCulled higher by the removed count. The
// walker1k backbone runs over the 20 instants of its 10-minute slice, the
// other two over 20 instants spread across their archetype durations.
func TestCandidatePairsMatchReference(t *testing.T) {
	chain := islChainArchetype(t)
	cases := []struct {
		name string
		spec qntn.WalkerSpec
		gap  time.Duration
	}{
		{"walker1k", qntn.Walker1kSpec(), qntn.DefaultParams().TopologyStep()},
		{"walker-96-global", qntn.WalkerTestSpec(), 9 * time.Minute},
		{chain.Name, oracletest.ISLChainSpec(), chain.Duration / 20},
	}
	for _, tc := range cases {
		for _, faults := range []bool{false, true} {
			name, p := tc.name, qntn.DefaultParams()
			if faults {
				name += "-faults"
				p.Fault = oracletest.FaultConfig(11)
			}
			t.Run(name, func(t *testing.T) {
				sc, err := qntn.NewWalker(tc.spec, p)
				if err != nil {
					t.Fatal(err)
				}
				instants := make([]time.Duration, 20)
				for k := range instants {
					instants[k] = time.Duration(k) * tc.gap
				}
				removed, admitted := 0, 0
				err = qntn.CompareCandidateSteps(sc, instants, func(st qntn.CandidateStep) {
					for k := 1; k < len(st.Cand); k++ {
						if st.Cand[k-1] >= st.Cand[k] {
							t.Fatalf("t=%v: candidates not strictly ascending at %d", st.At, k)
						}
					}
					if !slices.Equal(st.Cand, st.Allowed) {
						t.Fatalf("t=%v: %d candidates, reference minus forbidden ISL pairs %d (reference %d)",
							st.At, len(st.Cand), len(st.Allowed), len(st.Ref))
					}
					if !reflect.DeepEqual(st.Graph, st.RefGraph) {
						t.Fatalf("t=%v: graph (%d edges) != reference graph (%d edges)", st.At, st.Graph.NumEdges(), st.RefGraph.NumEdges())
					}
					got, want := st.Stats, st.RefStats
					if got.Admitted != want.Admitted || got.HorizonRejects != want.HorizonRejects || got.RangeRejects != want.RangeRejects {
						t.Fatalf("t=%v: admitted/horizon/range %d/%d/%d, reference %d/%d/%d", st.At,
							got.Admitted, got.HorizonRejects, got.RangeRejects, want.Admitted, want.HorizonRejects, want.RangeRejects)
					}
					if got.IndexCulled != want.IndexCulled+int64(st.Removed) {
						t.Fatalf("t=%v: IndexCulled %d, reference %d plus %d removed", st.At, got.IndexCulled, want.IndexCulled, st.Removed)
					}
					removed += st.Removed
					admitted += got.Admitted
				})
				if err != nil {
					t.Fatal(err)
				}
				if removed == 0 || admitted == 0 {
					t.Fatalf("degenerate run: %d forbidden pairs removed, %d links admitted", removed, admitted)
				}
				t.Logf("%d forbidden pairs removed, %d links admitted over %d instants", removed, admitted, len(instants))
			})
		}
	}
}
