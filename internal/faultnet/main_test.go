package faultnet

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running:
// a proxy's accept loop or a connection handler.
func TestMain(m *testing.M) { leakcheck.Main(m) }
