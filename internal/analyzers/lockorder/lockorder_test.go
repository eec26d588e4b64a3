package lockorder_test

import (
	"testing"

	"hafw/internal/analysis/analysistest"
	"hafw/internal/analyzers/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "order")
}

func TestCrossPackageCycle(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "cyca", "cycb")
}

func TestReleaseAndBlocking(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "lock")
}

func TestDeferUnlockFix(t *testing.T) {
	analysistest.RunWithSuggestedFixes(t, analysistest.TestData(), lockorder.Analyzer, "lockfix")
}
