package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	journalExt = ".journal"
	finalExt   = ".json"
	// jobSeqName is the file in the jobs directory that holds, per job
	// id prefix, the highest id number issued: a JSON object such as
	// {"f":3,"g":12}. A data dir without it counts the jobs on disk only.
	jobSeqName = "seq"
)

// JobJournal checkpoints one grid job: line 1 is the job's spec, every
// subsequent line one completed point's result, each append fsynced
// before the point is acknowledged. Finalize atomically writes the final
// result document and retires the journal; a crash at any instant leaves
// either a replayable journal or the finished document, never neither.
type JobJournal struct {
	s    *Store
	id   string
	f    File
	path string
}

// NewJobJournal creates (truncating any stale leftover) the journal for
// job id, writing and fsyncing the spec header line. spec must be a
// single line of JSON.
func (s *Store) NewJobJournal(id string, spec []byte) (*JobJournal, error) {
	if bytes.ContainsRune(spec, '\n') {
		return nil, fmt.Errorf("store: job %s spec is not a single line", id)
	}
	path := filepath.Join(s.jobsDir(), id+journalExt)
	f, err := s.fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: create journal %s: %w", id, err)
	}
	j := &JobJournal{s: s, id: id, f: f, path: path}
	if err := j.Append(spec); err != nil {
		f.Close()
		_ = s.fs.Remove(path)
		return nil, err
	}
	return j, nil
}

// Append journals one newline-free line and flushes it to stable
// storage. A torn final line from a crash mid-Append is dropped at
// recovery, so the point it described simply re-runs.
func (j *JobJournal) Append(line []byte) error {
	if bytes.ContainsRune(line, '\n') {
		return fmt.Errorf("store: journal %s line contains newline", j.id)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("store: append journal %s: %w", j.id, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync journal %s: %w", j.id, err)
	}
	return nil
}

// Finalize durably writes the job's final result document and retires
// the journal. After the atomic write lands, the journal is redundant —
// a crash before its removal is resolved at recovery in favor of the
// final document.
func (j *JobJournal) Finalize(final []byte) error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("store: close journal %s: %w", j.id, err)
	}
	if err := j.s.atomicWrite(filepath.Join(j.s.jobsDir(), j.id+finalExt), final); err != nil {
		return err
	}
	if err := j.s.fs.Remove(j.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: retire journal %s: %w", j.id, err)
	}
	return nil
}

// Abort closes and removes the journal without a final document — the
// job was canceled on purpose and must not resume at next boot.
func (j *JobJournal) Abort() error {
	_ = j.f.Close()
	if err := j.s.fs.Remove(j.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: abort journal %s: %w", j.id, err)
	}
	return nil
}

// Close releases the journal's file handle while keeping the journal on
// disk — a shutdown mid-run closes this way so the job resumes at next
// boot instead of being forgotten (Abort) or finished (Finalize).
func (j *JobJournal) Close() error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("store: close journal %s: %w", j.id, err)
	}
	return nil
}

// OpenJobJournal reattaches to an existing journal for appending — the
// resume path after RecoverJobs reported the job unfinished. Any torn
// unterminated tail is truncated away first (via an atomic rewrite), so
// subsequent appends extend a well-formed journal.
func (s *Store) OpenJobJournal(id string) (*JobJournal, error) {
	path := filepath.Join(s.jobsDir(), id+journalExt)
	raw, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reopen journal %s: %w", id, err)
	}
	if i := bytes.LastIndexByte(raw, '\n'); i < 0 || i != len(raw)-1 {
		if i < 0 {
			raw = nil
		} else {
			raw = raw[:i+1]
		}
		if err := s.atomicWrite(path, raw); err != nil {
			return nil, err
		}
	}
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("store: reopen journal %s: %w", id, err)
	}
	return &JobJournal{s: s, id: id, f: f, path: path}, nil
}

// RemoveJob deletes a job's on-disk state (final document and any
// journal) — called when the server prunes old finished jobs so the data
// directory does not accumulate result sets forever.
func (s *Store) RemoveJob(id string) error {
	var firstErr error
	for _, path := range []string{
		filepath.Join(s.jobsDir(), id+finalExt),
		filepath.Join(s.jobsDir(), id+journalExt),
	} {
		if err := s.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = fmt.Errorf("store: remove job %s: %w", id, err)
		}
	}
	return firstErr
}

// UnfinishedJob is a journal found at recovery: the job was mid-run when
// the process died. Spec is the header line; Lines are the completed
// point results, in completion order, torn tail dropped.
type UnfinishedJob struct {
	ID    string
	Spec  []byte
	Lines [][]byte
}

// FinishedJob is a final result document found at recovery.
type FinishedJob struct {
	ID    string
	Final []byte
}

// RecoverJobs scans the jobs directory. Jobs with a final document are
// returned as finished (a leftover journal beside one is retired); jobs
// with only a journal are returned as unfinished for resumption. Sorted
// by ID for deterministic boot order.
func (s *Store) RecoverJobs() ([]UnfinishedJob, []FinishedJob, error) {
	names, err := s.fs.ReadDir(s.jobsDir())
	if err != nil {
		return nil, nil, fmt.Errorf("store: list jobs: %w", err)
	}
	finals := make(map[string]bool)
	for _, name := range names {
		if id, ok := strings.CutSuffix(name, finalExt); ok {
			finals[id] = true
		}
	}
	var unfinished []UnfinishedJob
	var finished []FinishedJob
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, finalExt):
			id := strings.TrimSuffix(name, finalExt)
			data, err := s.fs.ReadFile(filepath.Join(s.jobsDir(), name))
			if err != nil {
				return nil, nil, fmt.Errorf("store: read final %s: %w", id, err)
			}
			finished = append(finished, FinishedJob{ID: id, Final: data})
		case strings.HasSuffix(name, journalExt):
			id := strings.TrimSuffix(name, journalExt)
			if finals[id] {
				// Crash landed between Finalize's atomic write and the
				// journal removal; the final document wins.
				_ = s.fs.Remove(filepath.Join(s.jobsDir(), name))
				continue
			}
			job, err := s.readJournal(id)
			if err != nil {
				return nil, nil, err
			}
			if job != nil {
				unfinished = append(unfinished, *job)
			}
		default:
			// Interrupted atomic write of a final document.
			if strings.HasSuffix(name, tmpSuffix) {
				_ = s.fs.Remove(filepath.Join(s.jobsDir(), name))
			}
		}
	}
	sort.Slice(unfinished, func(i, k int) bool { return unfinished[i].ID < unfinished[k].ID })
	sort.Slice(finished, func(i, k int) bool { return finished[i].ID < finished[k].ID })
	return unfinished, finished, nil
}

// readJournal parses one journal file. A journal so torn it has no
// intact spec header is removed and reported as nil — there is nothing
// to resume.
func (s *Store) readJournal(id string) (*UnfinishedJob, error) {
	path := filepath.Join(s.jobsDir(), id+journalExt)
	raw, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read journal %s: %w", id, err)
	}
	// Only newline-terminated lines are trustworthy: a crash mid-append
	// leaves an unterminated tail, which we drop (that point re-runs).
	if i := bytes.LastIndexByte(raw, '\n'); i < 0 {
		raw = nil
	} else {
		raw = raw[:i]
	}
	if len(raw) == 0 {
		s.log.Warn("store: journal has no intact header, dropping", "job", id)
		_ = s.fs.Remove(path)
		return nil, nil
	}
	lines := bytes.Split(raw, []byte("\n"))
	job := &UnfinishedJob{ID: id, Spec: lines[0]}
	for _, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		cp := make([]byte, len(line))
		copy(cp, line)
		job.Lines = append(job.Lines, cp)
	}
	cp := make([]byte, len(job.Spec))
	copy(cp, job.Spec)
	job.Spec = cp
	return job, nil
}

// RecordJobSeq durably records that the job id prefix+n was issued, so
// MaxSeq(prefix) reports at least n from now on, across restarts, even
// once nothing of the job is left on disk. Records only ever raise the
// mark; each one that does rewrites one small file atomically.
func (s *Store) RecordJobSeq(prefix string, n int) error {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if s.jobSeq[prefix] >= n {
		return nil
	}
	s.jobSeq[prefix] = n
	data, err := json.Marshal(s.jobSeq)
	if err != nil {
		return fmt.Errorf("store: encode job ids: %w", err)
	}
	return s.atomicWrite(filepath.Join(s.jobsDir(), jobSeqName), data)
}

// loadJobSeq reads the job id marks RecordJobSeq left. An unreadable
// file is reported and ignored: ids then continue past the jobs on disk,
// as in a data dir written before the file existed.
func (s *Store) loadJobSeq() error {
	raw, err := s.fs.ReadFile(filepath.Join(s.jobsDir(), jobSeqName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read job ids: %w", err)
	}
	var seq map[string]int
	if err := json.Unmarshal(raw, &seq); err != nil {
		s.log.Warn("store: job id marks unreadable, ignoring them", "err", err)
		return nil
	}
	maps.Copy(s.jobSeq, seq)
	return nil
}
