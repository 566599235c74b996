package main

import (
	"context"
	"runtime"
	"time"

	"crashsim/internal/obs"
)

// Setup repetitions: at least setupMinReps, and more (up to
// setupMaxReps) until setupMinTime has been spent, so a millisecond
// setup is still a median over many samples.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupMinTime = time.Second
)

// runSetup is the setup child: it repeats the step from inputs on disk
// to a ready program and reports the median of each part.
func runSetup(_ context.Context, rc runConfig, res *childResult) error {
	w := rc.Workload
	var total, graphLoad, open, imp, newSrv []float64
	crcBefore := obs.Default.Counter("store.crc_verified").Load()
	spent := time.Duration(0)
	for i := 0; i < setupMinReps || (spent < setupMinTime && i < setupMaxReps); i++ {
		runtime.GC()
		t0 := time.Now()
		if w.temporal() {
			if _, err := readHistory(rc.Dir); err != nil {
				return err
			}
			d := time.Since(t0)
			spent += d
			total = append(total, d.Seconds())
			continue
		}
		l, err := load(w, rc.Dir)
		if err != nil {
			return err
		}
		t1 := time.Now()
		p := w.params(l.g.NumNodes(), rc.Seed)
		if _, err := newServer(w, l, p, w.Algo); err != nil {
			l.close()
			return err
		}
		d := time.Since(t0)
		spent += d
		total = append(total, d.Seconds())
		graphLoad = append(graphLoad, ms(l.graphLoad))
		open = append(open, ms(l.open))
		imp = append(imp, ms(l.imp))
		newSrv = append(newSrv, ms(time.Since(t1)))
		if l.mp != nil {
			res.Metrics["store.mapped_mib"] = float64(l.mp.MappedBytes()) / (1 << 20)
		}
		l.close()
	}
	mt := res.Metrics
	mt["setup_s"] = median(total)
	reps := float64(len(total))
	if w.temporal() {
		mt["temporal.load_ms"] = median(total) * 1e3
		tg, err := readHistory(rc.Dir)
		if err != nil {
			return err
		}
		scan, err := scanHistory(tg)
		if err != nil {
			return err
		}
		mt["temporal.scan_ms"] = ms(scan)
	} else {
		mt["graph.load_ms"] = median(graphLoad)
		mt["store.open_ms"] = median(open)
		mt["store.import_ms"] = median(imp)
		mt["server.new_ms"] = median(newSrv)
		mt["store.crc_verified"] = float64(obs.Default.Counter("store.crc_verified").Load()-crcBefore) / reps
	}
	res.note("setup: median of %d repetitions %.4fs", len(total), median(total))
	return nil
}
