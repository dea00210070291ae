package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/skip_search.golden from current output")

// argsEnv, when set, makes the test binary run paperbench's main with
// these space-separated arguments instead of the tests: how the golden
// test runs the real command, flag parsing and stdout included.
const argsEnv = "PAPERBENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"paperbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPaperbench runs paperbench with args in a child process and returns
// its stdout without the closing wall-clock line.
func runPaperbench(t *testing.T, args string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("paperbench %s: %v\n%s", args, err, stderr.Bytes())
	}
	out = bytes.TrimSuffix(out, []byte("\n"))
	i := bytes.LastIndexByte(out, '\n')
	if i < 0 || !bytes.HasPrefix(out[i+1:], []byte("all experiments done in ")) {
		t.Fatalf("paperbench %s: output does not end with the timing line:\n%s", args, out)
	}
	return out[:i+1]
}

// TestSkipSearchGolden pins every paper-vs-measured value paperbench
// prints without the Fig. 4 search, at one worker, at two and at one per
// core: a change that moves a figure of the paper fails here. If the
// change is intended, regenerate with:
//
//	go test ./cmd/paperbench -run SkipSearchGolden -update
func TestSkipSearchGolden(t *testing.T) {
	path := filepath.Join("testdata", "skip_search.golden")
	if *updateGolden {
		got := runPaperbench(t, "-skip-search")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	for _, args := range []string{"-skip-search", "-skip-search -workers 1", "-skip-search -workers 2"} {
		if got := runPaperbench(t, args); !bytes.Equal(got, want) {
			t.Errorf("paperbench %s drifted from %s — if intentional, regenerate with -update.\ngot:\n%s", args, path, got)
		}
	}
}
