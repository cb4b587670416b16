package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageGolden pins the -h output. The help text is user interface:
// every flag must appear, and the examples block must stay in sync with the
// flags that exist. Regenerate with:
//
//	go test ./cmd/flipbit -run TestUsageGolden -update
var update = flag.Bool("update", false, "rewrite testdata/usage.golden")

// Note: the program's flags live on their own FlagSet (`flags` in main.go),
// so the test binary's -test.* flags can never leak into the golden.

func TestUsageGolden(t *testing.T) {
	var buf bytes.Buffer
	printUsage(&buf)

	const golden = "testdata/usage.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("usage drifted from golden (run with -update after reviewing):\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}

	// Structural check independent of the golden: every registered flag is
	// mentioned in the help text, so nobody adds a flag without help.
	flags.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(buf.String(), "-"+f.Name) {
			t.Errorf("flag -%s missing from usage output", f.Name)
		}
	})
}

// TestUnknownIDRunsNothing: an unknown ID anywhere in the argument list is
// rejected with exit 2 before any experiment runs, so the valid table2
// ahead of it must print nothing.
func TestUnknownIDRunsNothing(t *testing.T) {
	stdout, stderr, code := runCLI(t, "table2", "bogus")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("experiments ran before the unknown ID was rejected:\n%s", stdout)
	}
	if !strings.Contains(stderr, `unknown experiment "bogus"`) {
		t.Errorf("stderr does not name the unknown ID: %q", stderr)
	}
}

// TestBenchJSONRejectsTrimmedRuns: -benchjson writes the committed
// artifacts, so a -quick or non-SLC run is rejected with exit 2 before any
// experiment runs or any file is written.
func TestBenchJSONRejectsTrimmedRuns(t *testing.T) {
	for _, extra := range [][]string{{"-quick"}, {"-cell", "mlc"}, {"-cell", "tlc"}} {
		dir := t.TempDir()
		out := filepath.Join(dir, "BENCH_writepath.json")
		stdout, stderr, code := runCLI(t, append(extra, "-benchjson", out)...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2", extra, code)
		}
		if stdout != "" {
			t.Errorf("%v: ran before rejecting:\n%s", extra, stdout)
		}
		if !strings.Contains(stderr, "-benchjson") {
			t.Errorf("%v: stderr does not explain the rejection: %q", extra, stderr)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%v: wrote %d files", extra, len(entries))
		}
	}
}

// runCLI runs the program with args and returns what it wrote to stdout
// and stderr, and its exit code. Every flag starts at its default, so one
// call's flags do not leak into the next.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	flags.VisitAll(func(f *flag.Flag) { _ = f.Value.Set(f.DefValue) })
	oldArgs, oldOut, oldErr := os.Args, os.Stdout, os.Stderr
	defer func() { os.Args, os.Stdout, os.Stderr = oldArgs, oldOut, oldErr }()

	capture := func(dst **os.File) <-chan string {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		*dst = w
		done := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			r.Close()
			done <- string(b)
		}()
		return done
	}
	os.Args = append([]string{"flipbit"}, args...)
	outc, errc := capture(&os.Stdout), capture(&os.Stderr)
	code = run()
	os.Stdout.Close()
	os.Stderr.Close()
	return <-outc, <-errc, code
}
