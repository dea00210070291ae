package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	ehinfer "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// recoverFromStore repopulates the server from its data directory at
// construction: verified artifacts come back under their original IDs,
// finished jobs serve their final documents again, and unfinished jobs
// resume from their journals — restored items filled in verbatim, only
// the remainder re-run. Called from New before the listener exists,
// so it may touch server maps without contention (it still takes sv.mu
// where the register/Shutdown protocol demands it).
func (sv *Server) recoverFromStore() {
	sv.recoverArtifacts()
	sv.recoverJobs()
}

// artifactOutcome counts one artifact recovery outcome on the
// ehserved_artifact_recovery_total family.
func (sv *Server) artifactOutcome(outcome string, n int) {
	if n > 0 {
		sv.reg.Counter(obs.Metric(mArtifactRecovery, "outcome", outcome)).Add(int64(n))
	}
}

func (sv *Server) recoverArtifacts() {
	rec := sv.store.Recovery()
	sv.artifactOutcome("quarantined", rec.Quarantined)
	sv.artifactOutcome("torn_manifest", rec.TornManifest)
	sv.artifactOutcome("orphaned", rec.Orphans)

	arts, err := sv.store.Artifacts()
	if err != nil {
		sv.log.Error("recovery: reading artifacts failed; serving none", "err", err)
		return
	}
	restored := 0
	for _, a := range arts {
		bundle, err := ehinfer.DecodeDeployed(bytes.NewReader(a.Data))
		if err != nil {
			// The store's verify hook already quarantines undecodable
			// files when cmd wires it; this is the belt for embedders who
			// opened the store without one.
			sv.artifactOutcome("undecodable", 1)
			sv.log.Error("recovery: artifact does not decode, not serving it", "id", a.ID, "err", err)
			continue
		}
		art := &storedArtifact{id: a.ID, name: a.Name, data: a.Data, bundle: bundle}
		if art.name == "" {
			art.name = bundle.Name
		}
		sv.artifacts[a.ID] = art
		sv.artOrder = append(sv.artOrder, a.ID)
		restored++
	}
	sv.artifactOutcome("restored", restored)
	if n := sv.store.MaxSeq("a"); n > sv.nextArtID {
		sv.nextArtID = n
	}
	if restored > 0 || rec.Quarantined > 0 {
		sv.log.Info("recovery: artifacts",
			"restored", restored, "quarantined", rec.Quarantined,
			"orphans", rec.Orphans, "tornManifest", rec.TornManifest)
	}
}

// recoverJobs puts the store's jobs back into their kinds' tables:
// finished ones serve their final documents, unfinished ones resume.
func (sv *Server) recoverJobs() {
	unfinished, finished, err := sv.store.RecoverJobs()
	if err != nil {
		sv.log.Error("recovery: scanning jobs failed; resuming none", "err", err)
		return
	}
	for _, f := range finished {
		if k := sv.claim(f.ID); k != nil {
			sv.restoreFinished(k, f)
		}
	}
	resumed := 0
	for _, u := range unfinished {
		k := sv.claim(u.ID)
		if k == nil {
			continue
		}
		items, err := sv.resume(k, u)
		if err != nil {
			sv.log.Error("recovery: cannot resume job, dropping its journal", "kind", k.name, "job", u.ID, "err", err)
			_ = sv.store.RemoveJob(u.ID)
			continue
		}
		resumed++
		k.countResume(sv.reg, items)
	}
	sv.mu.Lock()
	for _, k := range sv.kinds() {
		// Ids continue past every id issued before, including those of
		// jobs that left nothing on disk: canceled, failed or streamed.
		k.last = max(k.last, sv.store.MaxSeq(k.prefix))
		// Submission order is the order of the numbers in the ids, not of
		// their spelling, which puts g10 before g2.
		slices.SortFunc(k.order, func(a, b string) int { return cmp.Compare(k.seq(a), k.seq(b)) })
	}
	sv.mu.Unlock()
	if len(finished) > 0 || resumed > 0 {
		sv.log.Info("recovery: jobs", "finished", len(finished), "resumed", resumed)
	}
}

// claim returns the kind a recovered job id belongs to by its prefix
// ("g"/"f"), which decides the spec shape and resume path its journal
// gets — a fleet spec would otherwise silently unmarshal into a zero
// GridSpec. It raises the kind's id sequence to the id's, whatever
// becomes of the job. Ids of no kind are logged and left on disk.
func (sv *Server) claim(id string) *jobKind {
	for _, k := range sv.kinds() {
		if n := k.seq(id); n > 0 && strings.HasPrefix(id, k.prefix) {
			k.last = max(k.last, n)
			return k
		}
	}
	sv.log.Error("recovery: job id of no known kind, leaving it", "job", id)
	return nil
}

// restoreFinished rebuilds a finished job from its final document:
// status, item streaming, and the byte-identical final document all
// serve again after a restart.
func (sv *Server) restoreFinished(k *jobKind, f store.FinishedJob) {
	j := newJob(k, f.ID, nil, func() {}, sv.log)
	if err := k.restore(j, f.Final); err != nil {
		sv.log.Error("recovery: final document unreadable, dropping job", "kind", k.name, "job", f.ID, "err", err)
		_ = sv.store.RemoveJob(f.ID)
		return
	}
	j.total = len(j.items)
	j.state = StateDone
	j.out.doc = f.Final
	sv.mu.Lock()
	sv.admitLocked(j)
	sv.mu.Unlock()
}

// resume relaunches one journaled run: the spec header resolves back to
// an engine (against the already-restored artifacts), which checks the
// journaled items against the spec and takes them as done, and the job
// goes back into the server's tables exactly as a fresh submission
// would — with its journal reattached so further items keep
// checkpointing. Returns the number of restored items.
func (sv *Server) resume(k *jobKind, u store.UnfinishedJob) (int, error) {
	eng, _, err := k.open(sv, func(spec any) error {
		if err := json.Unmarshal(u.Spec, spec); err != nil {
			return fmt.Errorf("spec header: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	restored, err := eng.resume(u.Lines)
	if err != nil {
		return 0, err
	}
	journal, err := sv.store.OpenJobJournal(u.ID)
	if err != nil {
		return 0, err
	}

	ctx, cancel := context.WithCancel(sv.baseCtx)
	j := newJob(k, u.ID, eng, cancel, sv.log)
	j.journal = journal
	// Journaled items stream first, in their original order, so a
	// follower attached across the restart sees the same sequence an
	// uninterrupted run would have produced.
	for _, line := range restored {
		j.items = append(j.items, append(line, '\n'))
	}
	sv.mu.Lock()
	sv.admitLocked(j)
	sv.wg.Add(1)
	sv.mu.Unlock()
	sv.launch(ctx, j)
	return len(restored), nil
}
