package main

import (
	"strings"
	"testing"
	"time"
)

// base returns a valid option set for tests to break one field at a time.
func base() options {
	return options{prog: "CRC32", model: "flip", tech: "read", mbf: 1,
		winSpec: "0", n: 10, seed: 1, hang: 10, workers: 1}
}

func TestRunRejectsUnknowns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"unknown program", func(o *options) { o.prog = "no-such-prog" }},
		{"unknown technique", func(o *options) { o.tech = "sideways" }},
		{"unknown model", func(o *options) { o.model = "no-such-model" }},
		{"stuck-at zero window", func(o *options) { o.model = "stuckat" }},
		{"resume without journal", func(o *options) { o.resume = true }},
		{"status without journal", func(o *options) { o.status = true }},
	}
	for _, c := range cases {
		o := base()
		c.mut(&o)
		if err := run(o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestPrintThroughput(t *testing.T) {
	var b strings.Builder
	printThroughput(&b, 500, 250*time.Millisecond)
	if got, want := b.String(), "fi: 500 experiments in 250ms (2000 experiments/s)\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
