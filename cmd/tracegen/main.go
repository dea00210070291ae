// Command tracegen generates and inspects energy-harvesting traces and
// event schedules as CSV files.
//
// Generated trace CSVs use the exact codec the experiment engine reads
// (energy.WriteTraceCSV / energy.TraceFromCSV), so a file written here
// can be registered as a named trace with
// ehinfer.RegisterTrace(name, ehinfer.TraceFromCSV(path)) and named in a
// grid as {"name": name, "kind": "registered"}, or passed to ehsim -trace.
//
// Usage:
//
//	tracegen -kind solar|kinetic [-hours H] [-peak mW] [-seed N] [-out trace.csv]
//	tracegen -events N [-hours H] [-seed N] [-out events.csv]
//	tracegen -inspect trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/energy"
)

func main() {
	var (
		kind    = flag.String("kind", "solar", "trace kind: solar or kinetic")
		hours   = flag.Float64("hours", 6, "duration in hours")
		peak    = flag.Float64("peak", 0.032, "peak (solar) or burst (kinetic) power in mW")
		seed    = flag.Uint64("seed", 42, "random seed")
		out     = flag.String("out", "", "output CSV path (default stdout)")
		events  = flag.Int("events", 0, "generate an event schedule of N events instead of a trace")
		inspect = flag.String("inspect", "", "print statistics for an existing trace CSV")
	)
	flag.Parse()

	if *inspect != "" {
		tr, err := energy.LoadTraceCSV(*inspect)
		if err != nil {
			fatal(err)
		}
		var max float64
		for _, p := range tr.Power {
			if p > max {
				max = p
			}
		}
		fmt.Printf("%s: %d s, mean %.2f µW, peak %.2f µW, total %.2f mJ\n",
			*inspect, tr.Duration(), 1000*tr.MeanPower(), 1000*max, tr.TotalEnergy())
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	seconds := int(*hours * 3600)
	if *events > 0 {
		s := energy.UniformSchedule(*events, seconds, 10, *seed)
		if err := energy.WriteScheduleCSV(w, s); err != nil {
			fatal(err)
		}
		return
	}

	var tr *energy.Trace
	switch *kind {
	case "solar":
		tr = energy.SyntheticSolarTrace(energy.SolarConfig{Seconds: seconds, PeakPower: *peak, Seed: *seed})
	case "kinetic":
		tr = energy.SyntheticKineticTrace(energy.KineticConfig{Seconds: seconds, BurstPower: *peak, Seed: *seed})
	default:
		fatal(fmt.Errorf("unknown trace kind %q", *kind))
	}
	if err := energy.WriteTraceCSV(w, tr); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
