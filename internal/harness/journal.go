package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ptguard/internal/chaos"
)

// The journal is a JSONL checkpoint: a header line identifying the
// campaign, then one line per finished job. Completed jobs are appended
// (and fsynced) as they finish, so a killed campaign loses at most
// in-flight work; jobs that exhaust their retries are appended as failure
// records carrying the attempt count and final error, so a resumed
// campaign surfaces flaky-job history instead of losing it.
//
// Version 2 frames every record as {"crc":"<crc32-hex>","e":{...}} with
// the CRC computed over the entry bytes: a torn trailing line from a
// mid-write kill is skipped, and a corrupted mid-file record is
// quarantined (reported, and its job re-run) instead of being silently
// accepted or silently dropped. An unframed (version 1) record is
// quarantined like any other corruption and its job re-runs; on open, a
// corrupted journal is compacted to clean v2 via an atomic
// temp-file+rename rewrite.

const (
	journalMagic   = "ptguard-harness"
	journalVersion = 2
)

type journalHeader struct {
	Magic       string `json:"journal"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

type journalEntry struct {
	Key       string          `json:"key"`
	Result    json.RawMessage `json:"result,omitempty"`
	Attempts  int             `json:"attempts"`
	ElapsedMS float64         `json:"elapsed_ms"`
	// Failed marks a poison-job record: the job exhausted its attempts and
	// Error holds its final error string. Failed records never satisfy a
	// resume — the job re-runs — but its history is surfaced in the
	// outcome.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// journalFrame is the v2 on-disk line: the entry bytes plus their CRC32.
type journalFrame struct {
	CRC   string          `json:"crc"`
	Entry json.RawMessage `json:"e"`
}

func frameCRC(entry []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(entry))
}

// decode unmarshals the stored result into out.
func (e journalEntry) decode(out any) error {
	if len(e.Result) == 0 {
		return fmt.Errorf("harness: journal entry %q has no result", e.Key)
	}
	return json.Unmarshal(e.Result, out)
}

// QuarantinedRecord describes one corrupted journal record: it is reported
// to the caller and its job (when identifiable) re-runs.
type QuarantinedRecord struct {
	// Line is the 1-based line number in the journal file.
	Line int `json:"line"`
	// Key is the job key when the record was parseable enough to name one.
	Key string `json:"key,omitempty"`
	// Reason describes why the record was rejected.
	Reason string `json:"reason"`
}

func (q QuarantinedRecord) String() string {
	if q.Key != "" {
		return fmt.Sprintf("line %d (job %q): %s", q.Line, q.Key, q.Reason)
	}
	return fmt.Sprintf("line %d: %s", q.Line, q.Reason)
}

// journalState is everything a load recovers from an existing journal.
type journalState struct {
	// order holds the distinct job keys in first-appearance order, so a
	// compaction rewrite preserves the journal's history order.
	order []string
	// completed maps job key -> latest successful record.
	completed map[string]journalEntry
	// failures maps job key -> latest failure record (attempt history).
	failures map[string]journalEntry
	// quarantined lists corrupted records that were rejected.
	quarantined []QuarantinedRecord
	// version is the header version (journalVersion when headerless).
	version int
	// tornTail marks a final line without a trailing newline that failed
	// to parse: the benign signature of a mid-write kill.
	tornTail bool
}

// dirty reports whether the on-disk journal should be compacted to clean
// v2 framing before appending resumes.
func (st *journalState) dirty() bool {
	return len(st.quarantined) > 0 || st.version < journalVersion || st.tornTail
}

// note records one rejected line.
func (st *journalState) note(line int, key, format string, args ...any) {
	st.quarantined = append(st.quarantined, QuarantinedRecord{
		Line: line, Key: key, Reason: fmt.Sprintf(format, args...),
	})
}

// add absorbs one valid entry, newest record per key winning.
func (st *journalState) add(e journalEntry) {
	if _, seen := st.completed[e.Key]; !seen {
		if _, seenF := st.failures[e.Key]; !seenF {
			st.order = append(st.order, e.Key)
		}
	}
	if e.Failed {
		st.failures[e.Key] = e
		return
	}
	st.completed[e.Key] = e
}

// loadJournal streams a journal and recovers its state. Records are
// line-framed but read through bufio.Reader, so record size is unbounded
// (the old bufio.Scanner path aborted resume on any record past 16MB with
// an opaque "token too long"). The only hard errors are I/O failures and a
// fingerprint mismatch; every malformed record is either the torn tail
// (skipped) or quarantined with a descriptive per-record reason. When the
// campaign has a fingerprint, a journal whose header names another one is
// a mismatch, and so is one that yields a record under a header naming
// none, or under no header at all: nothing ties such a record to this
// campaign.
func loadJournal(r io.Reader, fingerprint string) (*journalState, error) {
	st := &journalState{
		completed: make(map[string]journalEntry),
		failures:  make(map[string]journalEntry),
		version:   journalVersion,
	}
	br := bufio.NewReaderSize(r, 1<<16)
	lineNo := 0
	sawHeader := false
	headerFingerprint := ""
	for {
		line, err := br.ReadBytes('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			return nil, fmt.Errorf("harness: read journal: %w", err)
		}
		complete := len(line) > 0 && line[len(line)-1] == '\n'
		line = trimEOL(line)
		if len(line) > 0 {
			lineNo++
			if !complete {
				// Even a parseable un-terminated tail forces a compaction
				// rewrite: appending after it would concatenate records.
				st.tornTail = true
			}
			if !sawHeader {
				sawHeader = true
				var h journalHeader
				if jerr := json.Unmarshal(line, &h); jerr == nil && h.Magic == journalMagic {
					st.version = h.Version
					headerFingerprint = h.Fingerprint
					if fingerprint != "" && h.Fingerprint != "" && h.Fingerprint != fingerprint {
						return nil, foreignJournal(h.Fingerprint, fingerprint)
					}
					if atEOF {
						break
					}
					continue
				}
				// Headerless (or foreign) first line: fall through and try it
				// as a record.
			}
			st.loadRecord(line, lineNo, complete)
		}
		if atEOF {
			break
		}
	}
	if fingerprint != "" && headerFingerprint != fingerprint && len(st.completed)+len(st.failures) > 0 {
		return nil, foreignJournal(headerFingerprint, fingerprint)
	}
	return st, nil
}

// foreignJournal is the mismatch error for a journal whose header names
// fingerprint got ("" when it names none) where the campaign wants want.
func foreignJournal(got, want string) error {
	return fmt.Errorf("harness: journal belongs to a different campaign (fingerprint %q, want %q)", got, want)
}

// loadRecord classifies one non-empty journal line: a v2 CRC frame, a
// benign torn tail, or a quarantined corruption.
func (st *journalState) loadRecord(line []byte, lineNo int, complete bool) {
	var fr journalFrame
	err := json.Unmarshal(line, &fr)
	if err != nil || len(fr.Entry) == 0 {
		if !complete {
			return // torn mid-write tail: expected, not corruption
		}
		if err != nil {
			st.note(lineNo, "", "record is not valid JSON: %v", err)
		} else {
			st.note(lineNo, peekKey(line), "record is not CRC-framed")
		}
		return
	}
	// From here on, every defect is a quarantine: the line was written as
	// a framed record, so a mismatch means corruption.
	if want := frameCRC(fr.Entry); fr.CRC != want {
		if !complete {
			return // torn mid-write tail
		}
		st.note(lineNo, peekKey(fr.Entry), "CRC mismatch (stored %s, computed %s)", fr.CRC, want)
		return
	}
	var e journalEntry
	if err := json.Unmarshal(fr.Entry, &e); err != nil {
		st.note(lineNo, "", "framed entry is not valid JSON: %v", err)
		return
	}
	if e.Key == "" {
		st.note(lineNo, "", "framed entry has no job key")
		return
	}
	st.add(e)
}

// trimEOL strips a trailing \n / \r\n.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// peekKey best-effort extracts the job key from possibly-corrupt entry
// bytes, for quarantine reporting only.
func peekKey(entry []byte) string {
	var probe struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(entry, &probe); err != nil {
		return ""
	}
	return probe.Key
}

// journal appends finished jobs to the checkpoint file.
type journal struct {
	mu    sync.Mutex
	f     *os.File
	inj   *chaos.Injector
	bytes int64 // bytes appended by this process (journal-bytes counter)
}

// openJournal loads the journal state from path (if the file exists) and
// opens the file for appending, writing the v2 header when the file is
// new. A fingerprint mismatch between the header and the caller is an
// error: the journal belongs to a different campaign. A corrupted or torn
// journal is first compacted to clean v2 framing via an atomic
// temp-file+rename rewrite, so corruption is shed exactly once instead of
// being re-skipped on every resume.
func openJournal(path, fingerprint string, inj *chaos.Injector) (*journal, *journalState, error) {
	var st *journalState
	in, err := os.Open(path)
	switch {
	case os.IsNotExist(err):
		st = &journalState{
			completed: make(map[string]journalEntry),
			failures:  make(map[string]journalEntry),
			version:   journalVersion,
		}
	case err != nil:
		return nil, nil, fmt.Errorf("harness: open journal: %w", err)
	default:
		st, err = loadJournal(in, fingerprint)
		in.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("harness: journal %s: %w", path, err)
		}
		if st.dirty() {
			if err := compactJournal(path, fingerprint, st); err != nil {
				return nil, nil, err
			}
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: open journal: %w", err)
	}
	j := &journal{f: f, inj: inj}
	if fi, err := f.Stat(); err == nil && fi.Size() == 0 {
		h := journalHeader{Magic: journalMagic, Version: journalVersion, Fingerprint: fingerprint}
		if err := j.writeHeader(h); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, st, nil
}

// writeCompacted serialises st as a clean v2 journal: header, then the
// surviving records in first-appearance order, every entry CRC-framed.
func writeCompacted(w io.Writer, fingerprint string, st *journalState) error {
	bw := bufio.NewWriter(w)
	writeRec := func(v any, entry bool) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if entry {
			fr := journalFrame{CRC: frameCRC(raw), Entry: raw}
			if raw, err = json.Marshal(fr); err != nil {
				return err
			}
		}
		raw = append(raw, '\n')
		_, err = bw.Write(raw)
		return err
	}
	h := journalHeader{Magic: journalMagic, Version: journalVersion, Fingerprint: fingerprint}
	if err := writeRec(h, false); err != nil {
		return err
	}
	for _, key := range st.order {
		if e, ok := st.failures[key]; ok {
			if err := writeRec(e, true); err != nil {
				return err
			}
		}
		if e, ok := st.completed[key]; ok {
			if err := writeRec(e, true); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// compactJournal atomically rewrites path as a clean v2 journal holding
// st's surviving records (in first-appearance order): temp file in the
// same directory, fsync, rename over the original. A crash at any point
// leaves either the old journal or the new one, never a mix.
func compactJournal(path, fingerprint string, st *journalState) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return fmt.Errorf("harness: compact journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeCompacted(tmp, fingerprint, st); err != nil {
		tmp.Close()
		return fmt.Errorf("harness: compact journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("harness: compact journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("harness: compact journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("harness: compact journal: %w", err)
	}
	// Durably record the rename itself.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// append checkpoints one completed job.
func (j *journal) append(key string, result any, attempts int, elapsed time.Duration) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("harness: marshal result for %q: %w", key, err)
	}
	return j.writeEntry(journalEntry{
		Key:       key,
		Result:    raw,
		Attempts:  attempts,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// appendFailure records a poison job's attempt history.
func (j *journal) appendFailure(key string, attempts int, elapsed time.Duration, ferr error) error {
	return j.writeEntry(journalEntry{
		Key:       key,
		Attempts:  attempts,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Failed:    true,
		Error:     ferr.Error(),
	})
}

func (j *journal) writeHeader(h journalHeader) error {
	raw, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return j.writeLine(raw)
}

func (j *journal) writeEntry(e journalEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	framed, err := json.Marshal(journalFrame{CRC: frameCRC(raw), Entry: raw})
	if err != nil {
		return err
	}
	return j.writeLine(framed)
}

// writeLine appends one record line and fsyncs. The chaos fault points for
// every journal durability failure mode live here: a failed write, an
// ENOSPC, a torn write followed by a process kill, and a failed fsync.
func (j *journal) writeLine(line []byte) error {
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.inj.Err(chaos.JournalWrite, "journal write"); err != nil {
		return err
	}
	if j.inj.Fire(chaos.DiskFull) {
		return fmt.Errorf("harness: journal write: no space left on device: %w",
			&chaos.Error{Point: chaos.DiskFull, Op: "journal write"})
	}
	if j.inj.Fire(chaos.JournalShortWrite) {
		// Torn write: half the record reaches the disk, then the process
		// dies — the power-cut the CRC framing exists for.
		j.f.Write(line[:len(line)/2])
		j.f.Sync()
		j.inj.Kill(chaos.JournalShortWrite)
		return &chaos.Error{Point: chaos.JournalShortWrite, Op: "journal write"}
	}
	n, err := j.f.Write(line)
	j.bytes += int64(n)
	if err != nil {
		return err
	}
	if err := j.inj.Err(chaos.JournalFsync, "journal fsync"); err != nil {
		return err
	}
	return j.f.Sync()
}

// Bytes returns how many bytes this process has appended.
func (j *journal) Bytes() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// Close closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
