package experiments

import (
	"testing"

	"memhogs/internal/leakcheck"
)

// TestMain fails the package's tests when they leave goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
