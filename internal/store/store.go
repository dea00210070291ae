// Package store is ehserved's durability layer: a crash-safe artifact
// store plus per-job checkpoint journals under one data directory.
//
// Every mutation follows the temp-file + fsync + rename discipline, so a
// file either exists with its full contents or not at all; an append-only
// manifest journal records which artifact IDs are live; and Open replays
// the manifest, strict-verifies every surviving artifact, and quarantines
// anything torn or corrupt instead of serving it. The same guarantees the
// source paper demands of intermittent inference — progress persists,
// partial work is never observable — applied to the daemon's own state.
//
// All filesystem access goes through the FS interface so the chaos layer
// can inject short writes and fsync failures without touching the disk
// semantics under test.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FS is the slice of filesystem the store needs. OSFS is the real one;
// chaos.FaultFS wraps any FS with injected faults.
type FS interface {
	// MkdirAll creates path and parents.
	MkdirAll(path string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadFile returns path's contents.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the file names in dir (no directories).
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory entry so a completed rename or create
	// survives power loss.
	SyncDir(dir string) error
}

// File is a writable handle that can be flushed to stable storage.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// Create implements FS.
func (OSFS) Create(path string) (File, error) { return os.Create(path) }

// OpenAppend implements FS.
func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

const (
	artifactExt  = ".ehar"
	tmpSuffix    = ".tmp"
	manifestName = "manifest.log"
)

// manifestEntry is one line of the artifact manifest journal.
type manifestEntry struct {
	Op     string `json:"op"` // "put" or "del"
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Size   int    `json:"size,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
}

// Artifact is one recovered or stored deployment bundle.
type Artifact struct {
	ID   string
	Name string
	Data []byte
}

// RecoveryStats summarizes what Open found while replaying the data
// directory.
type RecoveryStats struct {
	// Restored artifacts passed size, checksum, and strict-decode checks.
	Restored int
	// Quarantined artifacts failed verification and were moved aside.
	Quarantined int
	// Orphans are files with no live manifest entry (leftover temp files,
	// deleted-but-unreaped artifacts) that were removed.
	Orphans int
	// TornManifest counts manifest lines dropped as unparsable — the tail
	// of an append cut short by a crash.
	TornManifest int
}

// Option configures Open.
type Option func(*Store)

// WithFS substitutes the filesystem implementation (chaos injection,
// tests).
func WithFS(fs FS) Option { return func(s *Store) { s.fs = fs } }

// WithVerify installs a strict decoder run against every artifact at
// recovery; a non-nil error quarantines the file.
func WithVerify(fn func(id string, data []byte) error) Option {
	return func(s *Store) { s.verify = fn }
}

// WithLogger routes recovery and quarantine notices; default discards.
func WithLogger(l *slog.Logger) Option { return func(s *Store) { s.log = l } }

// Store is a durable artifact store rooted at one data directory. All
// methods are safe for concurrent use.
type Store struct {
	dir    string
	fs     FS
	verify func(id string, data []byte) error
	log    *slog.Logger

	mu       sync.Mutex
	live     map[string]manifestEntry // id -> latest put entry
	order    []string                 // ids in first-put order
	seen     map[string]struct{}      // every id ever journaled, incl. deleted
	recovery RecoveryStats

	// seqMu serializes job id records: jobSeq, and the file that keeps it.
	seqMu  sync.Mutex
	jobSeq map[string]int // highest job id number recorded, by id prefix
}

func (s *Store) artifactsDir() string  { return filepath.Join(s.dir, "artifacts") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }
func (s *Store) jobsDir() string       { return filepath.Join(s.dir, "jobs") }
func (s *Store) manifestPath() string  { return filepath.Join(s.artifactsDir(), manifestName) }
func (s *Store) artifactPath(id string) string {
	return filepath.Join(s.artifactsDir(), id+artifactExt)
}

// Open mounts (creating if needed) the data directory at dir and runs
// recovery: replay the manifest, verify every live artifact, quarantine
// corruption, reap orphans, and compact the manifest.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:    dir,
		fs:     OSFS{},
		log:    slog.New(slog.DiscardHandler),
		live:   make(map[string]manifestEntry),
		seen:   make(map[string]struct{}),
		jobSeq: make(map[string]int),
	}
	for _, opt := range opts {
		opt(s)
	}
	for _, d := range []string{s.artifactsDir(), s.quarantineDir(), s.jobsDir()} {
		if err := s.fs.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", d, err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.loadJobSeq(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the data directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// Recovery returns what Open found.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// recover replays the manifest and reconciles it against the artifacts
// directory.
func (s *Store) recover() error {
	raw, err := s.fs.ReadFile(s.manifestPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read manifest: %w", err)
	}
	// Replay the journal. A line that fails to parse is the torn tail of
	// a crashed append: drop it and everything after — later lines were
	// written after the corruption point and cannot be trusted.
	dirty := false // does the on-disk manifest need compacting?
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ent manifestEntry
		if err := json.Unmarshal([]byte(line), &ent); err != nil || ent.ID == "" {
			s.recovery.TornManifest++
			dirty = true
			s.log.Warn("store: torn manifest entry dropped", "line", line)
			break
		}
		switch ent.Op {
		case "put":
			if _, seen := s.live[ent.ID]; !seen {
				s.order = append(s.order, ent.ID)
			} else {
				dirty = true // overwrite: journal has superseded lines
			}
			s.live[ent.ID] = ent
			s.seen[ent.ID] = struct{}{}
		case "del":
			delete(s.live, ent.ID)
			s.seen[ent.ID] = struct{}{}
			dirty = true
		default:
			s.recovery.TornManifest++
			dirty = true
			s.log.Warn("store: unknown manifest op dropped", "op", ent.Op)
		}
	}
	s.order = keepLive(s.order, s.live)

	// Verify every live artifact; quarantine what fails.
	for _, id := range s.order {
		ent := s.live[id]
		data, err := s.fs.ReadFile(s.artifactPath(id))
		switch {
		case err != nil:
			err = fmt.Errorf("read: %w", err)
		case len(data) != ent.Size:
			err = fmt.Errorf("size %d, manifest says %d", len(data), ent.Size)
		case checksum(data) != ent.SHA256:
			err = errors.New("checksum mismatch")
		case s.verify != nil:
			if verr := s.verify(id, data); verr != nil {
				err = fmt.Errorf("strict decode: %w", verr)
			}
		}
		if err != nil {
			s.quarantine(id, err)
			delete(s.live, id)
			dirty = true
			continue
		}
		s.recovery.Restored++
	}
	s.order = keepLive(s.order, s.live)

	// Reap orphans: files present on disk with no live manifest entry —
	// interrupted temp writes, deletes that crashed before the unlink.
	names, err := s.fs.ReadDir(s.artifactsDir())
	if err != nil {
		return fmt.Errorf("store: list artifacts: %w", err)
	}
	for _, name := range names {
		if name == manifestName {
			continue
		}
		id := strings.TrimSuffix(name, artifactExt)
		if _, ok := s.live[id]; ok && id != name {
			continue
		}
		s.recovery.Orphans++
		s.log.Warn("store: removing orphan", "file", name)
		if err := s.fs.Remove(filepath.Join(s.artifactsDir(), name)); err != nil {
			return fmt.Errorf("store: reap orphan %s: %w", name, err)
		}
	}

	// Compact only when replay found something to clean up (torn tail,
	// quarantine, overwrites, deletes): a clean boot must not rewrite —
	// and therefore cannot damage — a healthy manifest.
	if !dirty {
		return nil
	}
	return s.writeManifest()
}

// keepLive filters ids to those still present in live, preserving order.
func keepLive(ids []string, live map[string]manifestEntry) []string {
	kept := ids[:0]
	for _, id := range ids {
		if _, ok := live[id]; ok {
			kept = append(kept, id)
		}
	}
	return kept
}

// quarantine moves a failed artifact aside for postmortem instead of
// deleting evidence.
func (s *Store) quarantine(id string, cause error) {
	s.recovery.Quarantined++
	dst := filepath.Join(s.quarantineDir(), id+artifactExt)
	if err := s.fs.Rename(s.artifactPath(id), dst); err != nil {
		// The file may be unreadable or already gone; removal keeps it
		// out of serving either way.
		_ = s.fs.Remove(s.artifactPath(id))
	}
	s.log.Warn("store: artifact quarantined", "id", id, "cause", cause)
}

// writeManifest atomically replaces the manifest with one put line per
// live artifact. Caller must not hold other store files open for write.
func (s *Store) writeManifest() error {
	var buf strings.Builder
	for _, id := range s.order {
		line, err := json.Marshal(s.live[id])
		if err != nil {
			return fmt.Errorf("store: encode manifest: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return s.atomicWrite(s.manifestPath(), []byte(buf.String()))
}

// atomicWrite lands data at path with full crash safety: temp file in
// the same directory, write, fsync, rename over the target, fsync the
// directory.
func (s *Store) atomicWrite(path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	if err := s.fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: sync dir for %s: %w", path, err)
	}
	return nil
}

// appendManifest journals one entry with its own fsync.
func (s *Store) appendManifest(ent manifestEntry) error {
	line, err := json.Marshal(ent)
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	f, err := s.fs.OpenAppend(s.manifestPath())
	if err != nil {
		return fmt.Errorf("store: open manifest: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: append manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: fsync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close manifest: %w", err)
	}
	return nil
}

// Put durably stores an artifact: atomic data file first, then the
// manifest entry — a crash between the two leaves an orphan file that
// recovery reaps, never a manifest entry without data.
func (s *Store) Put(id, name string, data []byte) error {
	if err := s.atomicWrite(s.artifactPath(id), data); err != nil {
		return err
	}
	ent := manifestEntry{Op: "put", ID: id, Name: name, Size: len(data), SHA256: checksum(data)}
	if err := s.appendManifest(ent); err != nil {
		return err
	}
	s.mu.Lock()
	if _, seen := s.live[id]; !seen {
		s.order = append(s.order, id)
	}
	s.live[id] = ent
	s.seen[id] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Delete durably removes an artifact: manifest tombstone first, then the
// data file — a crash between the two leaves an orphan that recovery
// reaps.
func (s *Store) Delete(id string) error {
	if err := s.appendManifest(manifestEntry{Op: "del", ID: id}); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.live, id)
	s.order = keepLive(s.order, s.live)
	s.mu.Unlock()
	if err := s.fs.Remove(s.artifactPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: remove %s: %w", id, err)
	}
	return nil
}

// Artifacts returns every live artifact with its data, in first-put
// order. Used once at boot to repopulate the serving map.
func (s *Store) Artifacts() ([]Artifact, error) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	names := make(map[string]string, len(ids))
	for _, id := range ids {
		names[id] = s.live[id].Name
	}
	s.mu.Unlock()
	arts := make([]Artifact, 0, len(ids))
	for _, id := range ids {
		data, err := s.fs.ReadFile(s.artifactPath(id))
		if err != nil {
			return nil, fmt.Errorf("store: read %s: %w", id, err)
		}
		arts = append(arts, Artifact{ID: id, Name: names[id], Data: data})
	}
	return arts, nil
}

// MaxSeq returns the highest numeric suffix among IDs ever journaled in
// the form prefix+digits ("a7" → 7 for prefix "a"), so a restarted
// server resumes ID allocation past everything recovered — deleted IDs
// included: an ID, once handed out, is never reissued to a different
// artifact or job. Artifact IDs count from the manifest, job IDs from
// RecordJobSeq. IDs in other shapes count 0.
func (s *Store) MaxSeq(prefix string) int {
	s.seqMu.Lock()
	max := s.jobSeq[prefix]
	s.seqMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.seen {
		if n, ok := seq(id, prefix); ok && n > max {
			max = n
		}
	}
	return max
}

func seq(id, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// QuarantinedFiles lists file names currently held in quarantine,
// sorted — test and postmortem telemetry.
func (s *Store) QuarantinedFiles() ([]string, error) {
	names, err := s.fs.ReadDir(s.quarantineDir())
	if err != nil {
		return nil, fmt.Errorf("store: list quarantine: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

func checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
