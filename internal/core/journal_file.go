package core

// FileJournal: the durable Journal. The format is an append-only log of
// checksummed JSON records, one per line:
//
//	crc32(payload) as 8 hex digits, a space, the JSON payload, '\n'
//
// Record types (the "t" field): "meta" (campaign identity, first
// record), "lease" (shard, worker, expiry) and "done" (shard
// checkpoint). Each record is written with a single O_APPEND write, so
// concurrent worker processes sharing the file interleave whole records
// on any POSIX filesystem. There is no compaction and, by default, no
// fsync: a crash can lose the tail of the log, never the middle, and
// whatever a torn tail loses is re-executed deterministically on resume.
// FileJournalOptions.Sync upgrades durability for machine-level crashes
// (power loss): checkpoint and meta records are fsynced after their
// append, and the parent directory is fsynced when the journal file is
// created, so an acknowledged checkpoint survives anything short of
// media failure. Lease records are advisory and are deliberately never
// synced — losing one costs at most a duplicate shard run.
//
// The loader is tolerant by construction: a line whose checksum or JSON
// does not parse is skipped (a torn write from a crashed or concurrent
// writer), a trailing partial line is left pending until its newline
// arrives, and an inconsistent "done" record is dropped by the shared
// journalState validation. The worst case of any corruption is a shard
// that re-runs — results are unaffected. FuzzJournalLoader pins this.
//
// Every mutating call first absorbs records appended by other processes
// since the last read, so a FileJournal is also a live view of a
// campaign being drained by a fleet.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"multiflip/internal/xrand"
)

// journalIO is the file surface FileJournal actually uses. *os.File
// implements it directly; FaultFile (faultjournal.go) wraps one to
// inject deterministic I/O failures for the robustness tests and the
// chaos CI job.
type journalIO interface {
	io.ReaderAt
	io.Writer
	Sync() error
	Close() error
}

// encodeLine frames one record payload: 8 hex digits of CRC-32, a
// space, the payload, '\n'. The journal and the shared memo use the same
// framing.
func encodeLine(payload []byte) []byte {
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload))
}

// decodeLine unframes one record line (without its '\n'), reporting
// whether the checksum held.
func decodeLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// splitLines splits record data on '\n', dropping a trailing partial
// line (a torn final write).
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return out
		}
		out = append(out, data[:nl])
		data = data[nl+1:]
	}
}

// journalRecord is the on-disk union of the three record types.
type journalRecord struct {
	T     string        `json:"t"`
	Meta  *CampaignMeta `json:"meta,omitempty"`
	Shard int           `json:"s,omitempty"`
	// Worker and Exp (lease expiry, Unix milliseconds) belong to "lease"
	// records.
	Worker string       `json:"w,omitempty"`
	Exp    int64        `json:"exp,omitempty"`
	Res    *ShardResult `json:"res,omitempty"`
}

// FileJournal implements Journal over an append-only record log shared
// by worker processes.
type FileJournal struct {
	mu   sync.Mutex
	f    journalIO
	path string
	// readOff is how far absorb has consumed the file; pending buffers a
	// trailing partial line until the rest of it lands, and its spare
	// capacity is the read buffer of the next absorb.
	readOff int64
	pending []byte
	sync    bool
	// rng drives the append-retry backoff jitter (nil degrades to a fixed
	// half-backoff). Deliberately not part of the campaign's deterministic
	// random streams: retry timing never influences results.
	rng *xrand.Rand
	st  journalState
}

// FileJournalOptions configures OpenFileJournalOpts.
type FileJournalOptions struct {
	// Sync fsyncs the journal after every checkpoint or meta append and
	// fsyncs the parent directory when the journal file is created, so
	// acknowledged checkpoints survive machine-level crashes (power
	// loss), not just process death. Off by default: a lost unsynced
	// tail only re-runs deterministic shards on resume.
	Sync bool
	// LeaseGrace is the wall-clock skew margin granted to lease expiries
	// written by other processes (0 = DefaultLeaseGrace, negative =
	// none). See DefaultLeaseTTL for the cross-process clock contract.
	LeaseGrace time.Duration
	// Fault, when set, wraps the journal file in a FaultFile injecting
	// the plan's deterministic I/O failure schedule (tests, chaos CI).
	// Nil falls back to the MULTIFLIP_JOURNAL_FAULTS environment plan, if
	// any.
	Fault *FaultPlan
}

// OpenFileJournal opens (creating if needed) a journal file and absorbs
// its records. Opening never fails on corrupt content — bad records are
// skipped — only on I/O errors.
func OpenFileJournal(path string) (*FileJournal, error) {
	return OpenFileJournalOpts(path, FileJournalOptions{})
}

// OpenFileJournalOpts is OpenFileJournal with explicit durability and
// clock-skew options.
func OpenFileJournalOpts(path string, opts FileJournalOptions) (*FileJournal, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	if opts.Sync && created {
		// Make the new directory entry itself durable: without this a
		// power loss can forget the file existed even though its first
		// records were fsynced.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	var fio journalIO = f
	fault := opts.Fault
	if fault == nil {
		fault = envFaultPlan
	}
	if fault != nil {
		fio = NewFaultFile(f, fault)
	}
	j := &FileJournal{f: fio, path: path, sync: opts.Sync,
		rng: xrand.New(uint64(time.Now().UnixNano())),
		st:  journalState{now: time.Now, grace: opts.LeaseGrace}}
	if err := j.absorbLocked(); err != nil {
		fio.Close()
		return nil, err
	}
	return j, nil
}

// syncDir fsyncs a directory, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: sync journal dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("core: sync journal dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("core: sync journal dir: %w", cerr)
	}
	return nil
}

// Path returns the journal file's path.
func (j *FileJournal) Path() string { return j.path }

// Meta returns the bound campaign identity (zero until Bind or until the
// file's meta record is absorbed).
func (j *FileJournal) Meta() CampaignMeta {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.meta
}

// absorbChunk is the least free space absorbLocked reads into: the
// journal's read buffer grows only when less than this is left past the
// pending partial line.
const absorbChunk = 64 * 1024

// absorbLocked reads records appended since the last absorb and applies
// them. Torn or corrupt lines are skipped; a trailing partial line stays
// pending. Reads land directly in the spare capacity of pending, which
// the journal keeps across calls, so an absorb that finds no new bytes
// allocates nothing. Callers hold j.mu.
func (j *FileJournal) absorbLocked() error {
	for {
		if cap(j.pending)-len(j.pending) < absorbChunk {
			j.pending = slices.Grow(j.pending, absorbChunk)
		}
		n, err := j.f.ReadAt(j.pending[len(j.pending):cap(j.pending)], j.readOff)
		j.readOff += int64(n)
		j.pending = j.pending[:len(j.pending)+n]
		j.applyPending()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return j.wrapErr("read journal", err)
		}
	}
}

// applyPending applies every complete line in pending and moves the
// trailing partial line, if any, to the front of the buffer.
func (j *FileJournal) applyPending() {
	rest := j.pending
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		j.applyLine(rest[:nl])
		rest = rest[nl+1:]
	}
	j.pending = j.pending[:copy(j.pending, rest)]
}

// applyLine parses and applies one complete record line, skipping
// anything malformed.
func (j *FileJournal) applyLine(line []byte) {
	payload, ok := decodeLine(line)
	if !ok {
		return
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return
	}
	switch rec.T {
	case "meta":
		if rec.Meta != nil && !j.st.bound {
			// init only fails on invalid shape; a bad meta record is skipped
			// like any other corrupt line.
			_ = j.st.init(*rec.Meta)
		}
	case "lease":
		// Absorbed expiries are wall-clock timestamps from another
		// process's clock (or re-reads of our own appends, which
		// applyLease recognizes and ignores); the lease-liveness check
		// grants them the skew grace margin.
		j.st.applyLease(rec.Shard, rec.Worker, time.UnixMilli(rec.Exp), false)
	case "done":
		if rec.Res != nil {
			j.st.applyDone(rec.Res)
		}
	}
}

// appendAttempts bounds the append retry loop: transient I/O errors
// (ENOSPC racing a cleaner, EIO blips, short writes) get a handful of
// backed-off re-issues before the campaign gives up.
const appendAttempts = 6

// appendBackoff{Base,Cap} shape the retry backoff: exponential from
// Base, capped at Cap, jittered to [d/2, d). Variables, not constants,
// so the fault-injection tests can shrink them.
var (
	appendBackoffBase = 2 * time.Millisecond
	appendBackoffCap  = 250 * time.Millisecond
)

// appendLocked writes one record with a single O_APPEND write, retrying
// transient failures with jittered exponential backoff. durable also
// fsyncs (in sync mode) before the append counts as done. After ANY
// failure — a write error, a short write, a failed fsync — the record's
// durability is unknown, so the whole framed line is re-issued, never
// assumed written: a short first write leaves torn debris the loader
// skips, and a complete-but-unacknowledged one a duplicate the
// record-application layer already drops. Callers hold j.mu and apply
// the record after the append succeeds.
func (j *FileJournal) appendLocked(rec *journalRecord, durable bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return j.wrapErr("encode journal record", err)
	}
	line := encodeLine(payload)
	backoff := appendBackoffBase
	var last error
	for attempt := 0; attempt < appendAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(j.jitter(backoff))
			if backoff *= 2; backoff > appendBackoffCap {
				backoff = appendBackoffCap
			}
		}
		if _, err := j.f.Write(line); err != nil {
			last = err
			continue
		}
		if durable && j.sync {
			if err := j.f.Sync(); err != nil {
				last = err
				continue
			}
		}
		return nil
	}
	return j.wrapErr("append journal record", last)
}

// jitter spreads a backoff delay over [d/2, d) so retrying workers
// sharing a stressed filesystem don't beat in sync.
func (j *FileJournal) jitter(d time.Duration) time.Duration {
	half := d / 2
	if j.rng == nil || half <= 0 {
		return half
	}
	return half + time.Duration(j.rng.Uint64n(uint64(half)))
}

// wrapErr labels a journal error with the campaign fingerprint and file
// path, so a failed multi-process drain names which campaign file broke.
func (j *FileJournal) wrapErr(op string, err error) error {
	if j.st.bound {
		return fmt.Errorf("core: campaign %016x journal %s: %s: %w",
			j.st.meta.Fingerprint, j.path, op, err)
	}
	return fmt.Errorf("core: journal %s: %s: %w", j.path, op, err)
}

// Bind implements Journal: absorb the file, then install or validate the
// campaign identity, writing the meta record if the file had none.
func (j *FileJournal) Bind(meta CampaignMeta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		return err
	}
	hadMeta := j.st.bound
	if err := j.st.init(meta); err != nil {
		return err
	}
	if !hadMeta {
		return j.appendLocked(&journalRecord{T: "meta", Meta: &meta}, true)
	}
	return nil
}

// Claim implements Journal. The lease record is persisted before the
// claim is returned, so a peer absorbing the log sees the shard as taken.
func (j *FileJournal) Claim(worker string, ttl time.Duration) (int, ClaimState, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		return 0, ClaimWait, err
	}
	shard, state := j.st.findClaim()
	if state != ClaimOK {
		return shard, state, nil
	}
	// The lease record is deliberately not fsynced even in sync mode:
	// leases are advisory, and losing one to a crash only lets a peer
	// start the shard sooner.
	exp := j.st.now().Add(ttl)
	if err := j.appendLocked(&journalRecord{T: "lease", Shard: shard, Worker: worker, Exp: exp.UnixMilli()}, false); err != nil {
		return 0, ClaimWait, err
	}
	j.st.applyLease(shard, worker, exp, true)
	return shard, ClaimOK, nil
}

// Renew implements Journal: the lease heartbeat. The renewal re-uses the
// lease-append path (and, on re-read, the same own-echo suppression), is
// never fsynced, and is dropped without error when it no longer applies
// — the shard completed, or the lease expired and a peer stole it, in
// which case extending it would stomp the thief's claim.
func (j *FileJournal) Renew(worker string, shard int, ttl time.Duration) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		return err
	}
	if !j.st.renewable(shard, worker) {
		return nil
	}
	exp := j.st.now().Add(ttl)
	if err := j.appendLocked(&journalRecord{T: "lease", Shard: shard, Worker: worker, Exp: exp.UnixMilli()}, false); err != nil {
		return err
	}
	j.st.applyLease(shard, worker, exp, true)
	return nil
}

// Checkpoint implements Journal. A shard that is already checkpointed —
// a peer beat us to it after a lease steal — is dropped without a write:
// shard results are deterministic, so the duplicate is identical.
func (j *FileJournal) Checkpoint(res ShardResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		return err
	}
	if !j.st.bound || res.Shard < 0 || res.Shard >= len(j.st.shards) {
		return fmt.Errorf("core: checkpoint shard %d outside campaign", res.Shard)
	}
	if j.st.shards[res.Shard].res != nil {
		return nil
	}
	if err := j.appendLocked(&journalRecord{T: "done", Shard: res.Shard, Res: &res}, true); err != nil {
		return err
	}
	j.st.applyDone(&res)
	return nil
}

// Results implements Journal.
func (j *FileJournal) Results() ([]*ShardResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		return nil, err
	}
	return j.st.results(), nil
}

// Status implements Journal.
func (j *FileJournal) Status() (CampaignStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.absorbLocked(); err != nil {
		return CampaignStatus{}, err
	}
	if !j.st.bound {
		return CampaignStatus{}, fmt.Errorf("core: journal %s holds no campaign", j.path)
	}
	return j.st.status(), nil
}

// Close implements Journal.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// JournalInfo pairs a journal file with its campaign identity and
// progress, for `fi -status`.
type JournalInfo struct {
	Path   string
	Meta   CampaignMeta
	Status CampaignStatus
}

// InspectDir scans a journal directory and reports every campaign in it,
// sorted by path. It degrades per entry rather than failing the scan:
// journals whose meta record is missing or torn are skipped (there is
// nothing to report yet), as are entries that cannot be opened at all (a
// permission problem, or a stray directory matching the name pattern). A
// nonexistent or empty directory — or one holding only memo-*.mfj files —
// reports no campaigns and no error.
func InspectDir(dir string) ([]JournalInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "campaign-*.mfj"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []JournalInfo
	for _, p := range paths {
		j, err := OpenFileJournal(p)
		if err != nil {
			continue
		}
		st, serr := j.Status()
		meta := j.Meta()
		j.Close()
		if serr != nil {
			continue
		}
		out = append(out, JournalInfo{Path: p, Meta: meta, Status: st})
	}
	return out, nil
}
