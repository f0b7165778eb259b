package lint_test

import (
	"path/filepath"
	"slices"
	"testing"

	"mobilebench/internal/lint"
)

// TestExpandPatternsStopsAtNestedModule pins "./..." to the go command's
// meaning: the walk does not descend into a directory holding its own
// go.mod, since that is another module.
func TestExpandPatternsStopsAtNestedModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "modtree"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lint.ExpandPatterns(root, "example.com/modtree", []string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example.com/modtree", "example.com/modtree/sub", "example.com/modtree/sub/inner"}
	if !slices.Equal(got, want) {
		t.Fatalf("ExpandPatterns(./...) = %v, want %v", got, want)
	}
}
