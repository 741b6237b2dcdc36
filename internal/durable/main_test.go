package durable

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running:
// the snapshot writer's ads encoder.
func TestMain(m *testing.M) { leakcheck.Main(m) }
