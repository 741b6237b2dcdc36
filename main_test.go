package adindex

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running:
// an adaptation loop, a durable index's snapshot writer.
func TestMain(m *testing.M) { leakcheck.Main(m) }
