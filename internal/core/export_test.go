package core

import (
	"encoding/json"
	"os"

	"multiflip/internal/vm"
)

// SetExperimentHook installs the worker-claim test seam and returns a
// restore function. The error-propagation tests use it to hold workers at
// a barrier so several fail concurrently.
func SetExperimentHook(h func(idx int)) (restore func()) {
	experimentHook = h
	return func() { experimentHook = nil }
}

// SetObserveAll forces every experiment through the VM's observer tier
// (see observeAll) and returns a restore function.
func SetObserveAll() (restore func()) {
	observeAll = true
	return func() { observeAll = false }
}

// AutoClaimBatch exposes the claim-batch auto-tuner to the invariance
// and property tests.
var AutoClaimBatch = autoClaimBatch

// MaxClaimBatch exposes the auto-tuner's upper clamp.
const MaxClaimBatch = maxClaimBatch

// FaultInjections exposes the process-wide injected-fault counter, so
// fault-plan tests can assert non-vacuity (their schedule actually
// fired).
func FaultInjections() int64 { return faultsInjected.Load() }

// EngineFingerprint exposes the campaign content address to the
// classifier-identity tests.
func EngineFingerprint(e *Engine) uint64 { return e.fingerprint() }

// EngineMemoFingerprint exposes the memo content address to the
// classifier-identity tests.
func EngineMemoFingerprint(e *Engine) uint64 { return e.memoFingerprint() }

// ServiceMemo exposes the Service's memo hand-off to the memo-handle
// tests.
func ServiceMemo(s *Service, e *Engine) (*SharedMemo, error) {
	m, _, err := s.memoFor(e)
	return m, err
}

// MemoFileKeys decodes every intact record of a memo file and returns
// their keys in file order, duplicates included.
func MemoFileKeys(path string) ([]vm.StateKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys []vm.StateKey
	for _, line := range splitLines(data) {
		payload, ok := decodeLine(line)
		if !ok {
			continue
		}
		var rec memoRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, err
		}
		keys = append(keys, rec.K)
	}
	return keys, nil
}
