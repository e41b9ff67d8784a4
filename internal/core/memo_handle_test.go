package core_test

// Shared-memo handle tests: a Service decodes each memo file once and
// hands the same *SharedMemo to every campaign it serves, while the
// file itself keeps its one-record-per-key, append-only contents.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/vm"
)

// memoEngines returns journaled-campaign engines over tg with different
// fault models and seeds; all of them share tg's memo file.
func memoEngines(tg *core.Target) []*core.Engine {
	var engs []*core.Engine
	for i, m := range engineModels() {
		eng := m.engine(tg)
		eng.N = 48
		eng.Seed = uint64(31 + i)
		eng.Record = true
		engs = append(engs, eng)
	}
	reg := registerEngine(tg)
	reg.N = 48
	reg.Seed = 5
	reg.Record = true
	return append(engs, reg)
}

// memoFile returns the single memo file in dir.
func memoFile(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "memo-*.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("found %d memo files in %s, want 1", len(paths), dir)
	}
	return paths[0]
}

// checkOneRecordPerKey fails unless the memo file is non-empty and holds
// no key twice.
func checkOneRecordPerKey(t *testing.T, path string) {
	t.Helper()
	keys, err := core.MemoFileKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("memo file holds no records: the check is vacuous")
	}
	seen := make(map[vm.StateKey]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("memo file holds key %+v twice (%d records)", k, len(keys))
		}
		seen[k] = true
	}
}

// TestServiceSharesMemoHandle checks the hand-off itself: campaigns
// with different fault models on one target get the Service's one
// handle, another target gets its own, and an injected Memo overrides
// both.
func TestServiceSharesMemoHandle(t *testing.T) {
	crc, qs := target(t, "CRC32"), target(t, "qsort")
	svc := &core.Service{Dir: t.TempDir()}
	reg := registerEngine(crc)
	mem := &core.Engine{Target: crc, Model: &memfault.Model{Spec: &memfault.Spec{Target: crc, Bits: 2}}}
	a, err := core.ServiceMemo(svc, reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.ServiceMemo(svc, mem)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a != b {
		t.Fatalf("same target, different models: memo handles %p and %p, want one shared handle", a, b)
	}
	other, err := core.ServiceMemo(svc, registerEngine(qs))
	if err != nil {
		t.Fatal(err)
	}
	if other == nil || other == a {
		t.Fatalf("different target shares the handle %p", a)
	}
	injected, err := core.OpenSharedMemo(filepath.Join(t.TempDir(), "memo.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := core.ServiceMemo(&core.Service{Dir: svc.Dir, Memo: injected}, reg); err != nil || got != injected {
		t.Fatalf("injected memo: got %p (%v), want %p", got, err, injected)
	}
}

// TestServiceMemoRecordsOncePerKey runs several journaled campaigns
// through one Service and checks every memoized state key reaches the
// file exactly once.
func TestServiceMemoRecordsOncePerKey(t *testing.T) {
	tg := target(t, "CRC32")
	dir := t.TempDir()
	svc := &core.Service{Dir: dir, ShardSize: 16}
	for _, eng := range memoEngines(tg) {
		eng.Service = svc
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	checkOneRecordPerKey(t, memoFile(t, dir))
}

// TestCheckpointedResumeLeavesMemo checks a fully checkpointed resume,
// on the writing Service and on a fresh one, runs nothing, appends no
// byte to the memo file, and folds the written result bit for bit.
func TestCheckpointedResumeLeavesMemo(t *testing.T) {
	tg := target(t, "CRC32")
	dir := t.TempDir()
	run := func(svc *core.Service) (*core.EngineResult, int) {
		var ran atomic.Int64
		restore := core.SetExperimentHook(func(int) { ran.Add(1) })
		defer restore()
		eng := registerEngine(tg)
		eng.N = 60
		eng.Seed = 11
		eng.Record = true
		eng.Service = svc
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, int(ran.Load())
	}
	writer := &core.Service{Dir: dir, ShardSize: 8}
	written, _ := run(writer)
	path := memoFile(t, dir)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("written campaign left an empty memo: the check is vacuous")
	}
	writer.Resume = true
	for _, svc := range []*core.Service{writer, {Dir: dir, Resume: true, ShardSize: 8}} {
		resumed, ran := run(svc)
		if ran != 0 {
			t.Errorf("checkpointed resume executed %d experiments, want 0", ran)
		}
		sameResult(t, "checkpointed resume", written, resumed, true)
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Errorf("checkpointed resume grew the memo file from %d to %d bytes", len(before), len(after))
		}
	}
}

// TestServiceConcurrentEngines runs journaled campaigns with different
// fault models concurrently through one Service: each must reproduce
// its in-memory result, and their shared memo handle must record each
// key once. Run under -race it also covers the handle cache's locking.
func TestServiceConcurrentEngines(t *testing.T) {
	tg := target(t, "CRC32")
	engs := memoEngines(tg)
	want := make([]*core.EngineResult, len(engs))
	for i, eng := range engs {
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	dir := t.TempDir()
	svc := &core.Service{Dir: dir, ShardSize: 16}
	got := make([]*core.EngineResult, len(engs))
	var wg sync.WaitGroup
	for i, eng := range engs {
		eng.Service = svc
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Run()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range engs {
		sameResult(t, fmt.Sprintf("engine %d", i), want[i], got[i], false)
	}
	checkOneRecordPerKey(t, memoFile(t, dir))
}
