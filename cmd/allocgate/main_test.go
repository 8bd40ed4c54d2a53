package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, err strings.Builder
	code = run(args, &out, &err)
	return code, out.String(), err.String()
}

// TestBadModFails proves the escape check can fail: the fixture module's
// StepBatch parks a fresh slice in a field every call and must be flagged,
// while the stack-only SelectBatch and the partial-annotated
// SimulateSegmentCoded must not be. The bounds check's failing fixture is
// tested in cmd/bcegate.
func TestBadModFails(t *testing.T) {
	code, out, stderr := runCmd(t, "-dir", "testdata/badmod", "-pkgs", ".", "-v")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "StepBatch allocates") {
		t.Errorf("StepBatch violation not reported:\n%s", out)
	}
	if !strings.Contains(out, "SelectBatch is escape-free") {
		t.Errorf("clean SelectBatch not confirmed:\n%s", out)
	}
	if strings.Contains(out, "SimulateSegmentCoded allocates") {
		t.Errorf("annotated escape was gated:\n%s", out)
	}
	if !strings.Contains(out, "exempt in plain kernel SimulateSegmentCoded") {
		t.Errorf("exempt escape not listed under -v:\n%s", out)
	}
	if !strings.Contains(out, "violation(s)") {
		t.Errorf("violation count missing:\n%s", out)
	}
}

// TestJSONSchema locks the -json output to the shared diagjson shape:
// exactly the five agreed keys per record, and an escape record for the
// failing module.
func TestJSONSchema(t *testing.T) {
	code, out, stderr := runCmd(t, "-dir", "testdata/badmod", "-pkgs", ".", "-json")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, out, stderr)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(out), &records); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	found := false
	for _, r := range records {
		for _, key := range []string{"file", "line", "analyzer", "kind", "message"} {
			if _, ok := r[key]; !ok {
				t.Errorf("record missing %q: %v", key, r)
			}
		}
		if len(r) != 5 {
			t.Errorf("record has %d keys, want exactly 5: %v", len(r), r)
		}
		if r["analyzer"] != "allocgate" || (r["kind"] != "escape" && r["kind"] != "bounds-check") {
			t.Errorf("unexpected analyzer/kind: %v", r)
		}
		found = found || r["kind"] == "escape"
	}
	if !found {
		t.Errorf("-json produced no escape record for the failing module:\n%s", out)
	}
}

// TestProbeSelfTest removes the probes from the build: the gate must refuse
// to report a (vacuous) pass and exit 2.
func TestProbeSelfTest(t *testing.T) {
	code, out, stderr := runCmd(t, "-dir", "testdata/badmod", "-pkgs", ".", "-noprobe")
	if code != 2 {
		t.Fatalf("exit %d, want 2 when the probe is missing:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(stderr, "self-test failed") {
		t.Errorf("self-test failure not explained:\n%s", stderr)
	}
	// One build harvests both diagnostics, so either probe going missing
	// alone must trip the self-test too.
	bce := []diag{{file: "p/" + probeFile, line: 5, op: "IsInBounds"}}
	esc := []diag{{file: "p/" + probeFile, line: 10, msg: "moved to heap: x"}}
	if err := probeErr(bce, esc); err != nil {
		t.Errorf("both probes present: %v", err)
	}
	if err := probeErr(nil, esc); err == nil || !strings.Contains(err.Error(), "bounds check") {
		t.Errorf("missing bounds probe: %v", err)
	}
	if err := probeErr(bce, nil); err == nil || !strings.Contains(err.Error(), "escape") {
		t.Errorf("missing escape probe: %v", err)
	}
}

// TestEngineKernelsClean runs the real gate: every //treelint:plain kernel
// in internal/core, internal/encoding and internal/stackeval must be
// escape-free modulo its annotated lines, and every plain batch kernel
// bounds-check-free.
func TestEngineKernelsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the kernel packages; skipped in -short")
	}
	code, out, stderr := runCmd(t, "-dir", "../..")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s%s", code, out, stderr)
	}
	for _, summary := range []string{"plain kernel(s) escape-free", "plain kernel(s) bounds-check-free"} {
		if !strings.Contains(out, summary) {
			t.Errorf("summary %q missing:\n%s", summary, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, stderr := runCmd(t, "-nope"); code != 2 || stderr == "" {
		t.Errorf("bad flag: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCmd(t, "positional"); code != 2 || !strings.Contains(stderr, "no arguments") {
		t.Errorf("positional arg: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCmd(t, "-dir", "testdata"); code != 2 || !strings.Contains(stderr, "module root") {
		t.Errorf("non-module dir: exit %d, stderr %q", code, stderr)
	}
}
