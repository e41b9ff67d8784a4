package core

// The FileJournal read path (internal test: the seams are absorbLocked
// and the pending buffer). Every journal call absorbs first, so an
// absorb that finds no new bytes must cost no allocation, and a record
// torn across two absorbs must be applied once, when its newline lands.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"multiflip/internal/vm"
)

// absorbShard builds a validation-passing recorded checkpoint for one
// shard of meta.
func absorbShard(meta CampaignMeta, shard int) ShardResult {
	lo, hi := meta.Span(shard)
	sr := ShardResult{Shard: shard}
	for i := lo; i < hi; i++ {
		exp := Experiment{Cand: uint64(i * 7), Bit: i % 64, Outcome: Outcome(1 + i%NumOutcomes), Activated: i % 3}
		if exp.Outcome == OutcomeException {
			exp.Trap = vm.TrapKind(1 + i%(NumTrapKinds-1))
		}
		sr.Add(&exp, i%5 == 0, i%7 == 0, i%11 == 0)
		sr.Experiments = append(sr.Experiments, exp)
	}
	return sr
}

func TestAbsorbNoNewBytesAllocatesNothing(t *testing.T) {
	j, err := OpenFileJournal(filepath.Join(t.TempDir(), "campaign-absorb.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	meta := CampaignMeta{Fingerprint: 1, Model: "absorb", N: 32, ShardSize: 8, Seed: 3, Record: true}
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < meta.NumShards(); s++ {
		if err := j.Checkpoint(absorbShard(meta, s)); err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := j.absorbLocked(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("absorb with no new bytes allocates %.1f times per call, want 0", allocs)
	}
}

func TestAbsorbLongRecordTornAcrossAbsorbs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign-long.mfj")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	meta := CampaignMeta{Fingerprint: 2, Model: "long", N: 4000, ShardSize: 4000, Seed: 5, Record: true}
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	sr := absorbShard(meta, 0)
	payload, err := json.Marshal(&journalRecord{T: "done", Shard: 0, Res: &sr})
	if err != nil {
		t.Fatal(err)
	}
	line := encodeLine(payload)
	if len(line) < 2*absorbChunk {
		t.Fatalf("record is %d bytes, want more than two read chunks (%d)", len(line), 2*absorbChunk)
	}

	// A second writer appends the record in two torn halves; the first
	// alone is longer than the initial read buffer.
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	half := len(line) * 3 / 5
	if _, err := w.Write(line[:half]); err != nil {
		t.Fatal(err)
	}
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("torn first half applied: %d results", len(res))
	}
	if got := len(j.pending); got != half {
		t.Fatalf("pending holds %d bytes after the first half, want %d", got, half)
	}

	if _, err := w.Write(line[half:]); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		res, err = j.Results()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || !reflect.DeepEqual(*res[0], sr) {
			t.Fatalf("pass %d: %d results after the second half, want the one record intact", pass, len(res))
		}
		if len(j.pending) != 0 {
			t.Fatalf("pass %d: %d bytes still pending after the record's newline", pass, len(j.pending))
		}
	}
	st, err := j.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("status reports %d done shards, want 1", st.Done)
	}
}
