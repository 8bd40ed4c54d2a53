// Package bcegate holds the tests of the bounds check of the
// compiler-diagnostic gate. The gate itself is cmd/allocgate, which runs
// the escape and the bounds check over one build; these tests build that
// command once and drive it against this directory's bounds-check fixture
// (testdata/badmod) and against the engine.
package bcegate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// gate is the path of the allocgate binary built by TestMain.
var gate string

func TestMain(m *testing.M) {
	os.Exit(runTests(m))
}

func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "bcegate-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(dir)
	if err := touchGateSources(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	gate = filepath.Join(dir, "allocgate")
	build := exec.Command("go", "build", "-o", gate, "stackless/cmd/allocgate")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building allocgate: %v\n%s", err, out)
		return 2
	}
	return m.Run()
}

// touchGateSources reads the gate's Go files so that the test cache, which
// tracks the files a test opens, is invalidated when the gate changes.
func touchGateSources() error {
	files, err := filepath.Glob(filepath.Join("..", "allocgate", "*.go"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if _, err := os.ReadFile(f); err != nil {
			return err
		}
	}
	return nil
}

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	cmd := exec.Command(gate, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("running allocgate: %v", err)
		}
		code = exit.ExitCode()
	}
	return code, out.String(), errOut.String()
}

// TestBadModFails proves the bounds check can fail: the fixture module's
// StepBatch is written to defeat BCE and must be flagged, while its
// uint-guarded SelectBatch and partial-exempt SimulateSegmentCoded must not
// be.
func TestBadModFails(t *testing.T) {
	code, out, stderr := runCmd(t, "-dir", "testdata/badmod", "-pkgs", ".", "-v")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "StepBatch retains a bounds check") {
		t.Errorf("StepBatch violation not reported:\n%s", out)
	}
	if !strings.Contains(out, "SelectBatch is bounds-check-free") {
		t.Errorf("clean SelectBatch not confirmed:\n%s", out)
	}
	if strings.Contains(out, "SimulateSegmentCoded retains") {
		t.Errorf("partial kernel was gated:\n%s", out)
	}
	if !strings.Contains(out, "1 violation(s)") {
		t.Errorf("violation count missing:\n%s", out)
	}
}

// TestJSONSchema locks the -json output to the shared diagjson shape:
// exactly the five agreed keys per record, and only bounds-check records
// for a module whose one fault is a retained bounds check.
func TestJSONSchema(t *testing.T) {
	code, out, stderr := runCmd(t, "-dir", "testdata/badmod", "-pkgs", ".", "-json")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, out, stderr)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(out), &records); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(records) == 0 {
		t.Fatal("-json produced no records for the failing module")
	}
	for _, r := range records {
		for _, key := range []string{"file", "line", "analyzer", "kind", "message"} {
			if _, ok := r[key]; !ok {
				t.Errorf("record missing %q: %v", key, r)
			}
		}
		if len(r) != 5 {
			t.Errorf("record has %d keys, want exactly 5: %v", len(r), r)
		}
		if r["analyzer"] != "allocgate" || r["kind"] != "bounds-check" {
			t.Errorf("unexpected analyzer/kind: %v", r)
		}
	}
}

// TestEngineKernelsClean runs the real gate: every //treelint:plain batch
// kernel in internal/core, internal/encoding and internal/stackeval must be
// bounds-check-free.
func TestEngineKernelsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the kernel packages; skipped in -short")
	}
	code, out, stderr := runCmd(t, "-dir", "../..")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "plain kernel(s) bounds-check-free") {
		t.Errorf("summary missing:\n%s", out)
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
