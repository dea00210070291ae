package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes nothing (the store holds no long-lived handles besides
// journals) and mounts the same directory again, as a restart would.
func reopen(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Put("a1", "first", []byte("payload-1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("a2", "second", []byte("payload-2")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	s2 := reopen(t, dir)
	arts, err := s2.Artifacts()
	if err != nil {
		t.Fatalf("Artifacts: %v", err)
	}
	if len(arts) != 2 {
		t.Fatalf("recovered %d artifacts, want 2", len(arts))
	}
	if arts[0].ID != "a1" || arts[0].Name != "first" || string(arts[0].Data) != "payload-1" {
		t.Fatalf("a1 = %+v", arts[0])
	}
	if arts[1].ID != "a2" || string(arts[1].Data) != "payload-2" {
		t.Fatalf("a2 = %+v", arts[1])
	}
	if st := s2.Recovery(); st.Restored != 2 || st.Quarantined != 0 || st.Orphans != 0 || st.TornManifest != 0 {
		t.Fatalf("recovery = %+v, want 2 restored and nothing else", st)
	}
	if got := s2.MaxSeq("a"); got != 2 {
		t.Fatalf("MaxSeq = %d, want 2", got)
	}
}

func TestPutOverwriteAndDelete(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	for _, step := range []struct{ id, data string }{
		{"a1", "v1"}, {"a1", "v2"}, {"a2", "x"},
	} {
		if err := s.Put(step.id, step.id, []byte(step.data)); err != nil {
			t.Fatalf("Put %s: %v", step.id, err)
		}
	}
	if err := s.Delete("a2"); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	s2 := reopen(t, dir)
	arts, err := s2.Artifacts()
	if err != nil {
		t.Fatalf("Artifacts: %v", err)
	}
	if len(arts) != 1 || arts[0].ID != "a1" || string(arts[0].Data) != "v2" {
		t.Fatalf("after overwrite+delete got %+v, want only a1=v2", arts)
	}
	// The deleted ID's file is gone.
	if _, err := os.Stat(filepath.Join(dir, "artifacts", "a2.ehar")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a2.ehar still present: %v", err)
	}
}

// TestRecoveryTruncatedFile covers the crash model "data file torn":
// the manifest promises N bytes, the file has fewer. The artifact must be
// quarantined, the healthy one still served.
func TestRecoveryTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Put("a1", "ok", []byte("intact-artifact")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("a2", "torn", []byte("doomed-artifact")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, "artifacts", "a2.ehar")
	if err := os.WriteFile(path, []byte("doom"), 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2 := reopen(t, dir)
	st := s2.Recovery()
	if st.Restored != 1 || st.Quarantined != 1 {
		t.Fatalf("recovery = %+v, want 1 restored 1 quarantined", st)
	}
	arts, err := s2.Artifacts()
	if err != nil {
		t.Fatalf("Artifacts: %v", err)
	}
	if len(arts) != 1 || arts[0].ID != "a1" {
		t.Fatalf("served artifacts = %+v, want only a1", arts)
	}
	q, err := s2.QuarantinedFiles()
	if err != nil {
		t.Fatalf("QuarantinedFiles: %v", err)
	}
	if len(q) != 1 || q[0] != "a2.ehar" {
		t.Fatalf("quarantine = %v, want [a2.ehar]", q)
	}
}

// TestRecoveryBadMagic covers the crash model "file corrupt in place":
// a same-length rewrite flips the magic bytes, so only the checksum (and
// the strict-decode verify hook) can catch it — the healthy artifact is
// still served.
func TestRecoveryBadMagic(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Put("a1", "good", []byte("EHDAgood")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("a2", "bad", []byte("EHDAbad!")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip the magic in place; same length, so only the checksum and the
	// verify hook can catch it.
	path := filepath.Join(dir, "artifacts", "a2.ehar")
	if err := os.WriteFile(path, []byte("XXXXbad!"), 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	verify := func(id string, data []byte) error {
		if !bytes.HasPrefix(data, []byte("EHDA")) {
			return fmt.Errorf("bad magic in %s", id)
		}
		return nil
	}
	s2 := reopen(t, dir, WithVerify(verify))
	st := s2.Recovery()
	if st.Restored != 1 || st.Quarantined != 1 {
		t.Fatalf("recovery = %+v, want 1 restored 1 quarantined", st)
	}
	arts, _ := s2.Artifacts()
	if len(arts) != 1 || arts[0].ID != "a1" {
		t.Fatalf("served artifacts = %+v, want only a1", arts)
	}
}

// TestRecoveryVerifyHook: checksum matches (corruption happened before
// the checksum was journaled — e.g. a bad upload), only strict decode
// catches it.
func TestRecoveryVerifyHook(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Put("a1", "undecodable", []byte("not-an-artifact")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s2 := reopen(t, dir, WithVerify(func(id string, data []byte) error {
		return errors.New("strict decode refused")
	}))
	if st := s2.Recovery(); st.Quarantined != 1 || st.Restored != 0 {
		t.Fatalf("recovery = %+v, want quarantined 1", st)
	}
}

// TestRecoveryTornManifest covers the crash model "append cut short":
// the manifest's final line is half-written. Entries before it survive,
// the torn tail is dropped and counted, and the file the torn entry
// described is reaped as an orphan.
func TestRecoveryTornManifest(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Put("a1", "ok", []byte("intact")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("a2", "torn-entry", []byte("half-journaled")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Tear the final manifest line mid-JSON.
	mpath := filepath.Join(dir, "artifacts", "manifest.log")
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("manifest has %d lines, want 2", len(lines))
	}
	torn := append(lines[0], '\n')
	torn = append(torn, lines[1][:len(lines[1])/2]...)
	if err := os.WriteFile(mpath, torn, 0o644); err != nil {
		t.Fatalf("tear manifest: %v", err)
	}

	s2 := reopen(t, dir)
	st := s2.Recovery()
	if st.TornManifest != 1 {
		t.Fatalf("recovery = %+v, want 1 torn manifest line", st)
	}
	if st.Restored != 1 || st.Orphans != 1 {
		t.Fatalf("recovery = %+v, want 1 restored + a2 reaped as orphan", st)
	}
	arts, _ := s2.Artifacts()
	if len(arts) != 1 || arts[0].ID != "a1" {
		t.Fatalf("served artifacts = %+v, want only a1", arts)
	}
	// The compacted manifest replays cleanly on a third boot.
	s3 := reopen(t, dir)
	if st := s3.Recovery(); st.TornManifest != 0 || st.Restored != 1 {
		t.Fatalf("third boot recovery = %+v, want clean", st)
	}
}

// TestRecoveryOrphanTemp: a crash mid-atomic-write leaves a .tmp file;
// recovery reaps it without touching live artifacts.
func TestRecoveryOrphanTemp(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Put("a1", "ok", []byte("fine")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	tmp := filepath.Join(dir, "artifacts", "a2.ehar.tmp")
	if err := os.WriteFile(tmp, []byte("half"), 0o644); err != nil {
		t.Fatalf("plant tmp: %v", err)
	}
	s2 := reopen(t, dir)
	if st := s2.Recovery(); st.Orphans != 1 || st.Restored != 1 {
		t.Fatalf("recovery = %+v, want 1 orphan reaped", st)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp survived recovery: %v", err)
	}
}

func TestJobJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	j, err := s.NewJobJournal("g1", []byte(`{"name":"grid"}`))
	if err != nil {
		t.Fatalf("NewJobJournal: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf(`{"point":%d}`, i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	// Crash now: journal must replay header + 3 points.
	s2 := reopen(t, dir)
	unfinished, finished, err := s2.RecoverJobs()
	if err != nil {
		t.Fatalf("RecoverJobs: %v", err)
	}
	if len(finished) != 0 || len(unfinished) != 1 {
		t.Fatalf("recovered %d finished %d unfinished, want 0/1", len(finished), len(unfinished))
	}
	u := unfinished[0]
	if u.ID != "g1" || string(u.Spec) != `{"name":"grid"}` || len(u.Lines) != 3 {
		t.Fatalf("unfinished = %+v", u)
	}
	if string(u.Lines[2]) != `{"point":2}` {
		t.Fatalf("line 2 = %s", u.Lines[2])
	}

	// Finish the job; later boots see only the final document.
	if err := j.Finalize([]byte(`{"final":true}`)); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	s3 := reopen(t, dir)
	unfinished, finished, err = s3.RecoverJobs()
	if err != nil {
		t.Fatalf("RecoverJobs: %v", err)
	}
	if len(unfinished) != 0 || len(finished) != 1 {
		t.Fatalf("after finalize: %d/%d, want 0 unfinished 1 finished", len(unfinished), len(finished))
	}
	if finished[0].ID != "g1" || string(finished[0].Final) != `{"final":true}` {
		t.Fatalf("finished = %+v", finished[0])
	}
}

// TestJobJournalTornTail: a crash mid-append leaves an unterminated last
// line, which recovery drops — that point re-runs.
func TestJobJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	j, err := s.NewJobJournal("g1", []byte(`{"spec":1}`))
	if err != nil {
		t.Fatalf("NewJobJournal: %v", err)
	}
	if err := j.Append([]byte(`{"point":0}`)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Simulate the torn write directly on the file.
	path := filepath.Join(dir, "jobs", "g1.journal")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"point":1}`); err != nil { // no newline
		t.Fatalf("torn write: %v", err)
	}
	f.Close()

	s2 := reopen(t, dir)
	unfinished, _, err := s2.RecoverJobs()
	if err != nil {
		t.Fatalf("RecoverJobs: %v", err)
	}
	if len(unfinished) != 1 || len(unfinished[0].Lines) != 1 {
		t.Fatalf("unfinished = %+v, want 1 job with 1 intact line", unfinished)
	}
}

// TestJobJournalFinalizeCrash: final document written, journal removal
// missed — the final document wins and the stray journal is retired.
func TestJobJournalFinalizeCrash(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	j, err := s.NewJobJournal("g1", []byte(`{"spec":1}`))
	if err != nil {
		t.Fatalf("NewJobJournal: %v", err)
	}
	_ = j
	// Plant the final document by hand, leaving the journal in place.
	if err := s.atomicWrite(filepath.Join(dir, "jobs", "g1.json"), []byte(`{"done":1}`)); err != nil {
		t.Fatalf("plant final: %v", err)
	}
	s2 := reopen(t, dir)
	unfinished, finished, err := s2.RecoverJobs()
	if err != nil {
		t.Fatalf("RecoverJobs: %v", err)
	}
	if len(unfinished) != 0 || len(finished) != 1 {
		t.Fatalf("got %d/%d, want journal retired in favor of final", len(unfinished), len(finished))
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "g1.journal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray journal not retired: %v", err)
	}
}

func TestJobJournalAbort(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	j, err := s.NewJobJournal("g1", []byte(`{"spec":1}`))
	if err != nil {
		t.Fatalf("NewJobJournal: %v", err)
	}
	if err := j.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	unfinished, finished, err := s.RecoverJobs()
	if err != nil {
		t.Fatalf("RecoverJobs: %v", err)
	}
	if len(unfinished) != 0 || len(finished) != 0 {
		t.Fatalf("aborted job resurfaced: %d/%d", len(unfinished), len(finished))
	}
}

func TestJournalRejectsNewlines(t *testing.T) {
	s := reopen(t, t.TempDir())
	if _, err := s.NewJobJournal("g1", []byte("two\nlines")); err == nil {
		t.Fatal("NewJobJournal accepted a multi-line spec")
	}
	j, err := s.NewJobJournal("g2", []byte(`{}`))
	if err != nil {
		t.Fatalf("NewJobJournal: %v", err)
	}
	if err := j.Append([]byte("a\nb")); err == nil {
		t.Fatal("Append accepted an embedded newline")
	}
}

func TestMaxSeqIgnoresForeignShapes(t *testing.T) {
	s := reopen(t, t.TempDir())
	for _, id := range []string{"a3", "a10", "b99", "axx"} {
		if err := s.Put(id, id, []byte(id)); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if got := s.MaxSeq("a"); got != 10 {
		t.Fatalf("MaxSeq(a) = %d, want 10", got)
	}
	if got := s.MaxSeq("g"); got != 0 {
		t.Fatalf("MaxSeq(g) = %d, want 0", got)
	}
}

// TestRecordJobSeqAcrossReopen: a recorded job id outlives the job's
// files, marks only rise, and a data dir whose mark file is damaged or
// missing still opens, counting from the jobs on disk.
func TestRecordJobSeqAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	for _, rec := range []struct {
		prefix string
		n      int
	}{{"g", 3}, {"g", 2}, {"f", 1}} {
		if err := s.RecordJobSeq(rec.prefix, rec.n); err != nil {
			t.Fatalf("RecordJobSeq(%s, %d): %v", rec.prefix, rec.n, err)
		}
	}
	j, err := s.NewJobJournal("g3", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Abort(); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dir)
	if g, f := s2.MaxSeq("g"), s2.MaxSeq("f"); g != 3 || f != 1 {
		t.Fatalf("after reopen MaxSeq g=%d f=%d, want 3 and 1", g, f)
	}
	unfinished, finished, err := s2.RecoverJobs()
	if err != nil || len(unfinished)+len(finished) != 0 {
		t.Fatalf("the mark file was taken for a job: %v %v %v", unfinished, finished, err)
	}

	if err := os.WriteFile(filepath.Join(dir, "jobs", jobSeqName), []byte(`{"g":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopen(t, dir).MaxSeq("g"); got != 0 {
		t.Fatalf("damaged mark file: MaxSeq(g) = %d, want 0", got)
	}
}
