package immutable_test

import (
	"testing"

	"github.com/seqfuzz/lego/internal/analysis/analysistest"
	"github.com/seqfuzz/lego/internal/analysis/immutable"
)

func TestImmutable(t *testing.T) {
	analysistest.Run(t, immutable.Analyzer, "leaf", "user")
}
