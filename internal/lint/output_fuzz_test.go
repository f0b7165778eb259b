package lint_test

import (
	"encoding/json"
	"go/token"
	"testing"

	"mobilebench/internal/lint"
)

// FuzzDiagnosticsEncoder hammers the SARIF encoder with arbitrary
// finding content: any pass name, file path, message (control
// characters, broken UTF-8, JSON metacharacters) and position values,
// including negatives. The encoder must never panic and must always
// produce valid JSON — CI uploads its output verbatim, so one malformed
// escape would take the whole annotation pipeline down.
func FuzzDiagnosticsEncoder(f *testing.F) {
	f.Add("mutexhold", "internal/dist/coordinator.go", "channel send while c.mu is held", 42, 3)
	f.Add("fpcomplete", `c:\repo\internal\server\jobs.go`, `field "Shiny" of server.Spec is not referenced`, 7, -1)
	f.Add("", "", "", 0, 0)
	f.Add("wire\x00frame", "a\nb.go", "panic: \xff\xfe <script>\u2028</script>", -5, 1<<20)
	f.Add("goroleak", "testdata/src/π/ü.go", "goroutine \"leak\"\t\\escape", 1, 1)

	f.Fuzz(func(t *testing.T, pass, file, message string, line, col int) {
		findings := []lint.Finding{{
			Pass:    pass,
			Pos:     token.Position{Filename: file, Line: line, Column: col},
			Message: message,
		}}
		sarifOut, err := lint.EncodeSARIF(findings, "/repo")
		if err != nil {
			t.Fatalf("EncodeSARIF: %v", err)
		}
		if !json.Valid(sarifOut) {
			t.Fatalf("EncodeSARIF produced invalid JSON: %q", sarifOut)
		}
	})
}
