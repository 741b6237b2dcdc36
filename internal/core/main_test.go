package core

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running:
// the bulk loader's workers.
func TestMain(m *testing.M) { leakcheck.Main(m) }
