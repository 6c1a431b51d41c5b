package netsim

// SnapshotStats reports what happened during one topology snapshot.
type SnapshotStats struct {
	// Pairs is the number of node pairs evaluated, Admitted the number that
	// produced a usable link.
	Pairs    int
	Admitted int
	// HorizonRejects and RangeRejects are the evaluator's prefilter hits;
	// IndexCulled is the number of pairs the spatial index kept out of the
	// pair loop altogether (all zero when the evaluator does not implement
	// PairStatser).
	HorizonRejects int64
	RangeRejects   int64
	IndexCulled    int64
	// NodesDown and Weather describe fault state resolved for this step
	// (zero when the evaluator does not implement FaultStatser).
	NodesDown int
	Weather   bool
}

// PairStatser is optionally implemented by step evaluators that count
// geometric prefilter rejections. indexCulled is the number of pairs a
// spatial index removed from the candidate set before evaluation (zero when
// no index ran this step). Counts are for the current step and are drained
// before Close.
type PairStatser interface {
	PairStats() (horizonRejects, rangeRejects, indexCulled int64)
}

// FaultStatser is optionally implemented by step evaluators that resolve
// fault state per step.
type FaultStatser interface {
	FaultStats() (nodesDown int, weather bool)
}

// DrainStepStats fills st's evaluator-derived fields from ev's optional
// stats interfaces. Callers running their own pair loops over a BeginStep
// evaluator (rather than SnapshotInto) use this before Close.
//
//qntn:hotpath
func DrainStepStats(ev StepEvaluator, st *SnapshotStats) {
	if st == nil {
		return
	}
	if ps, ok := ev.(PairStatser); ok {
		st.HorizonRejects, st.RangeRejects, st.IndexCulled = ps.PairStats()
	}
	if fs, ok := ev.(FaultStatser); ok {
		st.NodesDown, st.Weather = fs.FaultStats()
	}
}
