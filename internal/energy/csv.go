package energy

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// WriteTraceCSV writes a trace as "t,power_mw" rows with a header.
func WriteTraceCSV(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_seconds", "power_mw"}); err != nil {
		return err
	}
	for i, p := range t.Power {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(p, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV parses a trace written by WriteTraceCSV, or any CSV whose
// final column is power in mW (a header row is skipped if non-numeric).
// Real NREL RSR exports can be fed through this after unit conversion.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	trace := &Trace{}
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("energy: parse trace CSV: %w", err)
		}
		row++
		if len(rec) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(rec[len(rec)-1], 64)
		if err != nil {
			if row == 1 {
				continue // header
			}
			return nil, fmt.Errorf("energy: trace CSV row %d: %w", row, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("energy: trace CSV row %d: negative power %g", row, v)
		}
		trace.Power = append(trace.Power, v)
	}
	return trace, nil
}

// csvTraceCache memoizes parsed trace files process-wide, keyed by
// path, so every TraceFromCSV builder for the same file — including the
// fresh closures a grid's per-point TraceSpec.Build calls create —
// shares one parse.
var csvTraceCache sync.Map // path -> *csvTraceEntry

type csvTraceEntry struct {
	once  sync.Once
	trace *Trace
	err   error
}

// TraceFromCSV returns a trace builder backed by a CSV file on disk —
// the registry-compatible form of LoadTraceCSV (see exper.RegisterTrace),
// which is also what makes a measured trace usable as a grid axis value.
// The file is read once per process and the parsed trace cached (a
// many-point grid does not re-parse it per point; rewriting the file
// under a running process is not observed — use a new path for new
// data). The seed parameter is ignored: a measured trace has no
// stochastic component. Builders are safe for concurrent use.
func TraceFromCSV(path string) func(seed uint64) (*Trace, error) {
	return func(uint64) (*Trace, error) {
		e, _ := csvTraceCache.LoadOrStore(path, &csvTraceEntry{})
		entry := e.(*csvTraceEntry)
		entry.once.Do(func() { entry.trace, entry.err = LoadTraceCSV(path) })
		if entry.err != nil {
			// Failed parses are not pinned: drop this exact entry so a
			// later call retries (the file may exist by then). The
			// compare guard keeps a stale failure from evicting a fresh
			// entry another goroutine already parsed successfully.
			csvTraceCache.CompareAndDelete(path, e)
		}
		return entry.trace, entry.err
	}
}

// LoadTraceCSV reads a trace file from disk.
func LoadTraceCSV(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTraceCSV(f)
}

// WriteScheduleCSV writes events as "t,class" rows.
func WriteScheduleCSV(w io.Writer, s *Schedule) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_seconds", "class"}); err != nil {
		return err
	}
	for _, e := range s.Events {
		if err := cw.Write([]string{strconv.Itoa(e.T), strconv.Itoa(e.Class)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
