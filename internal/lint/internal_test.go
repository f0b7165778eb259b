package lint

import "testing"

func TestParseVerbs(t *testing.T) {
	verbs, ok := parseVerbs(`"reading %s: %v"`)
	if !ok || len(verbs) != 2 {
		t.Fatalf("parseVerbs = %v, %v", verbs, ok)
	}
	if verbs[0].verb != 's' || verbs[0].arg != 0 || verbs[1].verb != 'v' || verbs[1].arg != 1 {
		t.Errorf("verb mapping wrong: %+v", verbs)
	}
	if verbs[1].text != "%v" {
		t.Errorf("verb text = %q, want %%v", verbs[1].text)
	}
	if _, ok := parseVerbs(`"%[1]v"`); ok {
		t.Error("indexed verbs must opt out of sequential mapping")
	}
	if _, ok := parseVerbs(`"%*d"`); ok {
		t.Error("starred width must opt out of sequential mapping")
	}
	verbs, ok = parseVerbs(`"100%% done: %.2f"`)
	if !ok || len(verbs) != 1 || verbs[0].verb != 'f' {
		t.Errorf("escaped %% handling wrong: %+v ok=%v", verbs, ok)
	}
}

func TestFingerprintStable(t *testing.T) {
	if Fingerprint() != Fingerprint() {
		t.Error("Fingerprint is not deterministic")
	}
}
