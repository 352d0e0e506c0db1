package features

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFeaturesDocInSync keeps FEATURES.md (the reproduction of the paper's
// extended-technical-report feature list) in lockstep with Names.
// Regenerate with: REGEN_FEATURES_MD=1 go test ./internal/features -run TestFeaturesDocInSync
func TestFeaturesDocInSync(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# The 192 Statistical Features of Numerical Columns\n\n")
	sb.WriteString("This file reproduces the feature list the paper publishes in its\n")
	sb.WriteString("extended technical report (§2.1): the vector carried by each V_ncf\n")
	sb.WriteString("node. It is generated from features.Names() and kept in sync by\n")
	sb.WriteString("TestFeaturesDocInSync. The extractor computes all 192 from one summary\n")
	sb.WriteString("of the column (a sort and a few fused passes, each value rendered at most once);\n")
	sb.WriteString("the package tests hold it bit for bit to a reference that computes each\n")
	sb.WriteString("feature on its own.\n\n")
	sb.WriteString("| # | Feature |\n|---|---|\n")
	for i, name := range Names() {
		fmt.Fprintf(&sb, "| %d | `%s` |\n", i+1, name)
	}
	want := sb.String()

	const path = "../../FEATURES.md"
	if os.Getenv("REGEN_FEATURES_MD") != "" {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("FEATURES.md missing (regenerate with REGEN_FEATURES_MD=1): %v", err)
	}
	if string(got) != want {
		t.Fatal("FEATURES.md out of sync with Names; regenerate with REGEN_FEATURES_MD=1")
	}
}
