package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// cpuBuckets groups the packages a CPU sample's leaf function lives in
// into the cpu.* per-layer metrics. encoding/json's number parsing and
// formatting runs in strconv, so strconv counts as JSON.
var cpuBuckets = map[string]string{
	"encoding/json":         "cpu.encoding_json",
	"strconv":               "cpu.encoding_json",
	"net/http":              "cpu.net_http",
	"net/http/internal":     "cpu.net_http",
	"net/textproto":         "cpu.net_http",
	"net":                   "cpu.net_http",
	"bufio":                 "cpu.net_http",
	"internal/poll":         "cpu.net_http",
	"syscall":               "cpu.net_http",
	"repro/internal/serve":  "cpu.serve",
	"repro/internal/obs":    "cpu.serve",
	"repro/internal/plan":   "cpu.plan",
	"repro/internal/tensor": "cpu.tensor",
}

// gcRoots are the garbage collector's entry points: a sample with one of
// them on its stack is collector work, whatever its leaf.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares sets each cpu.* metric to its share, in percent, of the
// samples in a gzipped pprof CPU profile.
func (b *bench) cpuShares(gz []byte) error {
	samples, err := parseProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var total float64
	shares := map[string]float64{"cpu.gc": 0}
	for _, bucket := range cpuBuckets {
		shares[bucket] = 0
	}
	for _, s := range samples {
		total += s.count
		gc := false
		for _, fn := range s.stack {
			for _, root := range gcRoots {
				gc = gc || fn == root
			}
		}
		if gc {
			shares["cpu.gc"] += s.count
		} else if bucket, ok := cpuBuckets[pkgOf(s.stack[0])]; ok {
			shares[bucket] += s.count
		}
	}
	if total == 0 {
		return errors.New("cpu profile holds no samples")
	}
	for name, v := range shares {
		b.layer[name] = 100 * v / total
	}
	return nil
}

// pkgOf is the import path of a function symbol such as
// "repro/internal/plan.(*Exec).InferTo" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

type sample struct {
	count float64
	stack []string // function names, leaf first, inlined frames expanded
}

// parseProfile decodes the samples of a gzipped pprof profile (the
// profile.proto wire format written by runtime/pprof): sample = 2,
// location = 4, function = 5, string_table = 6.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		rawSmps []rawSample
	)
	err = pbFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s rawSample
			var vals []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = pbAppend(s.locs, v, data)
				case 2:
					vals = pbAppend(vals, v, data)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			rawSmps = append(rawSmps, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(rawSmps))
	for _, rs := range rawSmps {
		s := sample{count: float64(rs.count)}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					s.stack = append(s.stack, strs[i])
				}
			}
		}
		if len(s.stack) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, handing each to fn
// with its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppend appends a repeated integer field's value, packed or not.
func pbAppend(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// daemonProfile is a CPU profile the daemon is recording.
type daemonProfile struct {
	done chan struct{}
	data []byte
	err  error
}

// startProfile asks the daemon's /debug/pprof for a CPU profile over the
// next window (whole seconds).
func (d *daemon) startProfile(ctx context.Context, window time.Duration) *daemonProfile {
	p := &daemonProfile{done: make(chan struct{})}
	secs := strconv.Itoa(max(1, int(window/time.Second)))
	go func() {
		defer close(p.done)
		p.data, p.err = d.mustGet(ctx, "/debug/pprof/profile?seconds="+secs)
	}()
	return p
}

func (p *daemonProfile) wait() ([]byte, error) {
	<-p.done
	return p.data, p.err
}

// memStats is the part of runtime.MemStats the per-request allocation
// metrics read.
type memStats struct{ totalAlloc, mallocs uint64 }

// memStats reads the daemon's runtime.MemStats from the text heap
// profile, which ends with "# Name = value" lines.
func (d *daemon) memStats(ctx context.Context) (memStats, error) {
	data, err := d.mustGet(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "TotalAlloc":
			m.totalAlloc, found = v, found+1
		case "Mallocs":
			m.mallocs, found = v, found+1
		}
	}
	if found != 2 {
		return m, errors.New("heap profile lacks TotalAlloc or Mallocs")
	}
	return m, nil
}
