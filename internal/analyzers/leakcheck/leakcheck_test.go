package leakcheck_test

import (
	"testing"

	"hafw/internal/analysis/analysistest"
	"hafw/internal/analyzers/leakcheck"
)

func TestLeakCheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), leakcheck.Analyzer, "leak")
}

func TestCrossPackageForever(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), leakcheck.Analyzer, "leaka", "leakb")
}

func TestDeferStopFix(t *testing.T) {
	analysistest.RunWithSuggestedFixes(t, analysistest.TestData(), leakcheck.Analyzer, "leakfix")
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), leakcheck.Analyzer, "span", "obsspan")
}
