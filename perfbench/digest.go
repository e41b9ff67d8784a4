package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
)

// The correctness gate. Every pass digests, per group (normally one
// program), what its campaigns recorded: outcome tallies, trap-kind
// counts, the activated-error histogram and total, and per-experiment
// records where the campaign keeps them. Converged, MemoHits and
// StaticPruned are left out: they differ between execution tiers by
// design. The reference digests come from the same seeds run with every
// tier the public options can switch off (reference mode, mkref.sh).

// refSeeds is the number of input seeds with stored references. A run's
// --seed selects input seed (seed mod refSeeds), so every seed is gated.
const refSeeds = 10

// digester accumulates one group's digest.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(int64(v)))
	d.h.Write(d.buf[:])
}

func (d *digester) ints(vs ...int) {
	for _, v := range vs {
		d.int(v)
	}
}

func (d *digester) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digester) tally(t *core.Tally) {
	d.ints(t.Counts[:]...)
	dims, err := json.Marshal(&t.Dims)
	if err != nil {
		panic(err) // DimTally marshals plain integer tables
	}
	d.h.Write(dims)
}

// engine digests an engine result: tally, trap kinds, activated
// histogram and total, and the per-experiment records.
func (d *digester) engine(label string, r *core.EngineResult) {
	d.str(label)
	d.tally(&r.Tally)
	d.ints(r.TrapCounts[:]...)
	d.ints(r.CrashActivated[:]...)
	d.int(r.ActivatedTotal)
	d.int(len(r.Experiments))
	for i := range r.Experiments {
		e := &r.Experiments[i]
		d.ints(int(e.Cand), e.Bit, int(e.Dir), int(e.Role), int(e.Outcome), int(e.Trap), e.Activated)
	}
}

func (d *digester) memfault(label string, r *memfault.Result) {
	d.str(label)
	d.tally(&r.Tally)
	d.int(len(r.Outcomes))
	for _, o := range r.Outcomes {
		d.int(int(o))
	}
}

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// digests maps group -> digest for one pass.
type digests map[string]string

// groupSizes maps group -> experiments the group's campaigns ran, so a
// mismatching group can be counted as failed experiments.
type groupSizes map[string]int

// gate compares a pass's digests with the reference and returns the
// experiments of every group whose digest misses (or is absent from)
// the reference, plus the mismatching group names.
func gate(ref, got digests, sizes groupSizes) (failed int, bad []string) {
	for g, d := range got {
		if ref[g] != d {
			failed += sizes[g]
			bad = append(bad, g)
		}
	}
	for g := range ref {
		if _, ok := got[g]; !ok {
			bad = append(bad, g)
		}
	}
	sort.Strings(bad)
	return failed, bad
}

// reference is a workload's stored reference file.
type reference struct {
	Workload string `json:"workload"`
	// Params names the workload's sizes; a reference made at other
	// sizes cannot gate this run.
	Params string `json:"params"`
	Tiers  string `json:"tiers"`
	// Seeds maps input seed -> group -> digest.
	Seeds map[string]digests `json:"seeds"`
}

func referencePath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func loadReference(dir string, w *workload) (*reference, error) {
	data, err := os.ReadFile(referencePath(dir, w.name))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", w.name, err)
	}
	if ref.Params != w.params() {
		return nil, fmt.Errorf("reference %s was made for %q, the workload is %q", w.name, ref.Params, w.params())
	}
	return &ref, nil
}

func (r *reference) forSeed(seed uint64) (digests, error) {
	d, ok := r.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, fmt.Errorf("reference %s has no seed %d", r.Workload, seed)
	}
	return d, nil
}

func (r *reference) write(dir string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(dir, r.Workload), append(data, '\n'), 0o644)
}
