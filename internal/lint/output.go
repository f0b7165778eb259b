package lint

// This file holds the machine-readable diagnostics: SARIF 2.1 for CI
// inline PR annotations.

import (
	"encoding/json"
	"path/filepath"
	"sort"
)

// relPath renders file relative to root with forward slashes (the form
// SARIF viewers want); paths outside root stay absolute.
func relPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != ".." && !isParentRef(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

func isParentRef(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// --- SARIF 2.1.0 (the subset GitHub code scanning consumes) ---

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	Version        string      `json:"version"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
	EndLine     int `json:"endLine,omitempty"`
	EndColumn   int `json:"endColumn,omitempty"`
}

// EncodeSARIF renders findings as a SARIF 2.1.0 log. Rules list every
// registered pass (keeping the rule table stable for CI) plus any other
// pass that fired, every result has level "error" (each finding fails
// mblint), and file URIs are root-relative so GitHub anchors annotations
// in the PR diff.
func EncodeSARIF(findings []Finding, root string) ([]byte, error) {
	ruleSet := make(map[string]string)
	for _, a := range All() {
		ruleSet[a.Name] = a.Doc
	}
	for _, f := range findings {
		if _, ok := ruleSet[f.Pass]; !ok {
			ruleSet[f.Pass] = ""
		}
	}
	ruleIDs := make([]string, 0, len(ruleSet))
	for id := range ruleSet {
		ruleIDs = append(ruleIDs, id)
	}
	sort.Strings(ruleIDs)
	rules := make([]sarifRule, 0, len(ruleIDs))
	for _, id := range ruleIDs {
		rules = append(rules, sarifRule{ID: id, ShortDescription: sarifMessage{Text: ruleSet[id]}})
	}

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		region := sarifRegion{StartLine: max(f.Pos.Line, 1), StartColumn: max(f.Pos.Column, 1)}
		if f.End.Line > 0 {
			region.EndLine = f.End.Line
			region.EndColumn = f.End.Column
		}
		results = append(results, sarifResult{
			RuleID:  f.Pass,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(root, f.Pos.Filename)},
					Region:           region,
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "mblint",
				Version:        Fingerprint(),
				InformationURI: "https://example.invalid/mobilebench/mblint",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}
