package multiserver

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
