package qntn

import (
	"testing"

	"qntn/internal/lint"
)

// BenchmarkQntnlint measures the full linter pipeline over the module —
// `go list`, parsing, type-checking, cross-package fact computation and
// all analyzers — i.e. the same work one `make lint` run does. Tracking it
// alongside the simulation benchmarks keeps the cost of the pre-commit
// gate visible as the tree and the analyzer suite grow.
func BenchmarkQntnlint(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.Load("qntn/...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := lint.RunAnalyzers(pkgs, lint.All())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("qntnlint reported %d diagnostics on the tree; first: %+v", len(diags), diags[0])
		}
	}
}
