package corpus

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running:
// the reader's block parsers, a merge's chunks.
func TestMain(m *testing.M) { leakcheck.Main(m) }
