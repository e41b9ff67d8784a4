package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPrintThroughput(t *testing.T) {
	var b strings.Builder
	printThroughput(&b, throughput{n: 8400, wall: 2100 * time.Millisecond})
	if got, want := b.String(), "study: 8400 experiments in 2.1s (4000 experiments/s)\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestThroughputLineStaysOffTheReport pins that the wall-time line goes
// to stderr only: the report on stdout and the one written with -o are
// byte-identical, and neither carries the line.
func TestThroughputLineStaysOffTheReport(t *testing.T) {
	p := params{n: 20, seed: 5, progs: "CRC32", quick: true, transitions: true, stuckat: true}
	var stdout, stderr bytes.Buffer
	if err := run(p, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^study: \d+ experiments in \S+ \(\d+ experiments/s\)\n$`)
	if !line.Match(stderr.Bytes()) {
		t.Fatalf("stderr %q is not one throughput line", stderr.String())
	}
	if stdout.Len() == 0 || bytes.Contains(stdout.Bytes(), []byte("experiments/s")) {
		t.Fatalf("stdout report is empty or carries the throughput line")
	}

	p.out = filepath.Join(t.TempDir(), "report.txt")
	var stdout2, stderr2 bytes.Buffer
	if err := run(p, &stdout2, &stderr2); err != nil {
		t.Fatal(err)
	}
	if stdout2.Len() != 0 {
		t.Fatalf("-o run wrote %d bytes to stdout", stdout2.Len())
	}
	if !line.Match(stderr2.Bytes()) {
		t.Fatalf("-o run: stderr %q is not one throughput line", stderr2.String())
	}
	file, err := os.ReadFile(p.out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, stdout.Bytes()) {
		t.Fatalf("-o report (%d bytes) differs from the stdout report (%d bytes)", len(file), stdout.Len())
	}
}

// TestProfileFlags checks -cpuprofile and -exectrace: both files are
// written and non-empty, the report on stdout and in the -o file is
// byte-identical to a run without the flags, and stderr still carries
// only the throughput line.
func TestProfileFlags(t *testing.T) {
	p := params{n: 20, seed: 5, progs: "CRC32", quick: true, transitions: true, stuckat: true}
	var plain, plainErr bytes.Buffer
	if err := run(p, &plain, &plainErr); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^study: \d+ experiments in \S+ \(\d+ experiments/s\)\n$`)
	dir := t.TempDir()
	for _, out := range []string{"", filepath.Join(dir, "report.txt")} {
		q := p
		q.out = out
		q.cpuprofile = filepath.Join(dir, "cpu.prof")
		q.exectrace = filepath.Join(dir, "exec.trace")
		var stdout, stderr bytes.Buffer
		if err := run(q, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{q.cpuprofile, q.exectrace} {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() == 0 {
				t.Errorf("%s is empty", f)
			}
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		report := stdout.Bytes()
		if out != "" {
			var err error
			if report, err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(report, plain.Bytes()) {
			t.Errorf("out=%q: profiled report (%d bytes) differs from the plain run's (%d bytes)", out, len(report), plain.Len())
		}
		if !line.Match(stderr.Bytes()) {
			t.Errorf("out=%q: profiled run's stderr %q is not one throughput line", out, stderr.String())
		}
	}
}
