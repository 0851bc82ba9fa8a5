package main

import "testing"

// TestModuleClean runs the whole suite over every package of the
// module, the same load and passes as `go run ./cmd/simvet ./...`,
// and requires zero diagnostics.
func TestModuleClean(t *testing.T) {
	diags, err := run("../..", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
