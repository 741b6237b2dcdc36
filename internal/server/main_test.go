package server

import (
	"testing"

	"adindex/internal/leakcheck"
)

// TestMain fails the package's tests when any leaves a goroutine running:
// a server's listener or connection handlers, an index's adaptation loop.
func TestMain(m *testing.M) { leakcheck.Main(m) }
