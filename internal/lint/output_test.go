package lint_test

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"mobilebench/internal/lint"
)

func sampleFindings(root string) []lint.Finding {
	return []lint.Finding{
		{
			Pass:    "mutexhold",
			Pos:     token.Position{Filename: filepath.Join(root, "internal/dist/coordinator.go"), Line: 42, Column: 3},
			Message: "channel send while c.mu is held",
		},
		{
			Pass:    "fpcomplete",
			Pos:     token.Position{Filename: filepath.Join(root, "internal/server/jobs.go"), Line: 7, Column: 2},
			End:     token.Position{Filename: filepath.Join(root, "internal/server/jobs.go"), Line: 7, Column: 9},
			Message: `field "Shiny" is not referenced`,
		},
	}
}

// TestEncodeSARIFLevelIsError pins that every result is an error: the
// policy has no warning tier, and each finding fails mblint.
func TestEncodeSARIFLevelIsError(t *testing.T) {
	data, err := lint.EncodeSARIF(sampleFindings("/repo"), "/repo")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), `"level": "error"`); got != 2 {
		t.Fatalf("%d results at level error, want 2:\n%s", got, data)
	}
	if strings.Contains(string(data), `"level": "warning"`) {
		t.Fatalf("warning level in output:\n%s", data)
	}
}

func TestEncodeSARIF(t *testing.T) {
	root := string(filepath.Separator) + "repo"
	data, err := lint.EncodeSARIF(sampleFindings(root), root)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "mblint" {
		t.Fatalf("missing mblint driver run")
	}
	// Every registered pass appears in the rule table.
	ruleIDs := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range lint.All() {
		if !ruleIDs[a.Name] {
			t.Errorf("pass %s missing from SARIF rules", a.Name)
		}
	}
	res := log.Runs[0].Results
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if uri := res[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/dist/coordinator.go" {
		t.Errorf("artifact URI not root-relative: %q", uri)
	}
	if res[0].Locations[0].PhysicalLocation.Region.StartLine != 42 {
		t.Errorf("start line lost")
	}
}
