package main

import (
	"bytes"
	"fmt"
	"sync"

	ehinfer "repro"
)

// profile is the layer walk's answer for one image: the class and
// confidence at every exit.
type profile struct {
	class []int
	conf  []float64
}

// layerWalk computes each image's reference profile with
// Deployed.Net.InferTo and Resume, the layer walk the compiled float plan
// is documented to reproduce bit for bit. The walk keeps forward state
// on the layers, so each worker decodes its own copy of the model.
func layerWalk(model []byte, imgs [][]float32, workers int) ([]profile, error) {
	out := make([]profile, len(imgs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bundle, err := ehinfer.DecodeDeployed(bytes.NewReader(model))
			if err != nil {
				errs[w] = err
				return
			}
			net := bundle.Deployed.Net
			exits := net.NumExits()
			for i := w; i < len(imgs); i += workers {
				img, err := ehinfer.FromImageData(imgs[i])
				if err != nil {
					errs[w] = err
					return
				}
				p := profile{class: make([]int, exits), conf: make([]float64, exits)}
				st := net.InferTo(img, 0)
				for e := 0; ; e++ {
					p.class[e], p.conf[e] = st.Predicted(), st.Confidence()
					if e+1 == exits {
						break
					}
					st = net.Resume(st, e+1)
				}
				out[i] = p
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// agreement counts per-exit class matches between int8fast answers and
// the float reference.
type agreement struct{ same, total int }

// int8FastEpsilon is the per-exit class disagreement int8fast may show
// against the float reference: the bound TestInt8FastStatisticalParity
// holds it to.
const int8FastEpsilon = 0.15

func (a agreement) check(b *bench) {
	if a.total == 0 {
		return
	}
	share := float64(a.same) / float64(a.total)
	b.check(share >= 1-int8FastEpsilon, "int8fast: per-exit class agreement with the float reference %.3f over %d exits, want >= %.2f",
		share, a.total, 1-int8FastEpsilon)
}

// checkAnswer checks one prediction made with exit bound and threshold
// th against the image's reference profile: the exit rule always, every
// per-exit class and confidence bit for bit on the float plan, and the
// class agreement tally on int8fast.
func checkAnswer(b *bench, where string, p ehinfer.Prediction, bound int, th float64, ref profile, backend string, agree *agreement) {
	if len(p.ExitClasses) != bound+1 || len(p.ExitConfidences) != bound+1 {
		b.check(false, "%s: profile has %d classes and %d confidences, want %d each",
			where, len(p.ExitClasses), len(p.ExitConfidences), bound+1)
		return
	}
	want := bound
	if th > 0 {
		for e, c := range p.ExitConfidences {
			if c >= th {
				want = e
				break
			}
		}
	}
	b.check(p.Exit == want && p.Class == p.ExitClasses[want] && p.Confidence == p.ExitConfidences[want],
		"%s: answered exit %d (class %d, confidence %v); the exit rule gives exit %d (class %d, confidence %v)",
		where, p.Exit, p.Class, p.Confidence, want, p.ExitClasses[want], p.ExitConfidences[want])
	b.check(p.Backend == backend, "%s: answered by backend %q, asked for %q", where, p.Backend, backend)
	for e := 0; e <= bound; e++ {
		switch backend {
		case "plan":
			b.check(p.ExitClasses[e] == ref.class[e] && p.ExitConfidences[e] == ref.conf[e],
				"%s: exit %d gave class %d confidence %v; the layer walk gives class %d confidence %v",
				where, e, p.ExitClasses[e], p.ExitConfidences[e], ref.class[e], ref.conf[e])
		case "int8fast":
			agree.total++
			if p.ExitClasses[e] == ref.class[e] {
				agree.same++
			}
		}
	}
}

// pathBracket gives, for each exit, the fewest and the most MACs an
// inference ending there can spend: a direct run to some exit k, then
// incremental resumes Marginal[a][c] (a < c) up to the exit. Under the
// chain approximation Marginal documents, resuming can be cheaper than
// the direct run, so both ends are needed.
func pathBracket(exitFLOPs []int64, marg [][]int64) (lo, hi []float64) {
	lo = make([]float64, len(exitFLOPs))
	hi = make([]float64, len(exitFLOPs))
	for i, f := range exitFLOPs {
		lo[i], hi[i] = float64(f), float64(f)
		for a := range i {
			lo[i] = min(lo[i], lo[a]+float64(marg[a][i]))
			hi[i] = max(hi[i], hi[a]+float64(marg[a][i]))
		}
	}
	return lo, hi
}

// bracketed reports whether v lies in [lo, hi] up to rounding in sums
// of many float terms.
func bracketed(v, lo, hi float64) bool {
	tol := 1e-9 * max(1, hi)
	return v >= lo-tol && v <= hi+tol
}

// nonuniformCosts is the MAC table of the paper's nonuniform deployment,
// the policy every fleet population and grid point here runs. The table
// depends on the policy alone, not on the deployment seed.
func nonuniformCosts() (lo, hi []float64, err error) {
	d, err := ehinfer.BuildDeployed(ehinfer.Fig1bNonuniform(), 1)
	if err != nil {
		return nil, nil, fmt.Errorf("build nonuniform deployment: %w", err)
	}
	lo, hi = pathBracket(d.ExitFLOPs, d.Marginal)
	return lo, hi, nil
}

// deviceEnergy is a registered MCU's energy per million MACs in mJ.
func deviceEnergy(name string) (float64, error) {
	sc, err := ehinfer.NewScenario().DeviceNamed(name).Build()
	if err != nil {
		return 0, err
	}
	return sc.Device.EnergyPerMFLOP, nil
}
