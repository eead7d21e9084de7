package main

import (
	"context"
	"fmt"
	"time"

	cm "counterminer"
	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/fingerprint"
	"counterminer/internal/interact"
	"counterminer/internal/rank"
	"counterminer/internal/sgbrt"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/internal/timeseries"
)

// replayer re-runs an analysis through the modules' public calls in
// the pipeline's stage order, one span per call, so the traced run can
// time each layer from outside the program. Its result must equal the
// Pipeline's; a difference is counted, never treated as a failure, so
// later changes to the pipeline's orchestration are not blocked.
type replayer struct {
	cat *sim.Catalogue
	col *collector.Collector
	db  *store.DB
	tr  *Tracer
}

func newReplayer(storeDir string, tr *Tracer) (*replayer, error) {
	cat := sim.NewCatalogue()
	db, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	return &replayer{cat: cat, col: collector.New(cat), db: db, tr: tr}, nil
}

// replayCounts are the per-analysis counts read off the module results.
type replayCounts struct {
	eirRounds int
	treeFits  int
}

// span runs fn inside a span named name and returns fn's error.
func (rp *replayer) span(name string, parent, req int, fn func() error) error {
	id := rp.tr.Start(name, parent, req)
	defer rp.tr.End(id)
	return fn()
}

// analyze replays one analysis of bench under opts (the library
// options a request resolves to) as request req.
func (rp *replayer) analyze(ctx context.Context, bench string, opts cm.Options, req int) (*cm.Analysis, replayCounts, error) {
	var rc replayCounts
	root := rp.tr.Start("pipeline.analyze", 0, req)
	defer rp.tr.End(root)

	if err := opts.CleanOptions.Validate(); err != nil {
		return nil, rc, err
	}
	opts = opts.WithDefaults()
	cleaner, err := clean.Lookup(opts.CleanOptions.Cleaner)
	if err != nil {
		return nil, rc, err
	}
	prof, err := sim.ProfileByName(bench)
	if err != nil {
		return nil, rc, err
	}
	events := opts.Events
	if events == nil {
		events = rp.cat.Events()
	}
	ana := &cm.Analysis{Benchmark: prof.Name, Cleaner: cleaner.Name(), Events: len(events)}
	deg := &ana.Degradation

	// Collect.
	var runs []*collector.Run
	for run := 1; run <= opts.Runs; run++ {
		runID := int(opts.Seed)*100 + run
		deg.RunsAttempted++
		var r *collector.Run
		if err := rp.span("collector.Collect", root, req, func() (err error) {
			r, err = rp.col.Collect(prof, runID, collector.MLPX, events)
			return err
		}); err != nil {
			return nil, rc, fmt.Errorf("collect run %d: %w", runID, err)
		}
		deg.RunsSucceeded++
		runs = append(runs, r)
	}

	// Validate: a column unusable in any run is dropped from all.
	kept := events
	if err := rp.span("clean.ValidateSeries", root, req, func() error {
		bad := make(map[string]bool)
		for _, r := range runs {
			for _, ev := range events {
				if bad[ev] {
					continue
				}
				reason := ""
				if s, err := r.Series.Lookup(ev); err != nil {
					reason = "missing from run"
				} else if verr := clean.ValidateSeries(s.Values, len(r.IPC)); verr != nil {
					reason = verr.Error()
				}
				if reason != "" {
					bad[ev] = true
					deg.EventsQuarantined = append(deg.EventsQuarantined, cm.Quarantine{Event: ev, RunID: r.RunID, Reason: reason})
				}
			}
		}
		if len(bad) > 0 {
			kept = nil
			for _, ev := range events {
				if !bad[ev] {
					kept = append(kept, ev)
				}
			}
		}
		if len(kept) < 2 {
			return fmt.Errorf("%s: %d usable events", bench, len(kept))
		}
		return nil
	}); err != nil {
		return nil, rc, err
	}

	// Clean and assemble the training matrix.
	copts := opts.CleanOptions
	if copts.Workers == 0 {
		copts.Workers = opts.Workers
	}
	raw := make([]*timeseries.Set, len(runs))
	var X [][]float64
	var y []float64
	for i, r := range runs {
		in := r.Series
		if in.Len() != len(kept) {
			in = timeseries.NewSet()
			for _, ev := range kept {
				if s, ok := r.Series.Get(ev); ok {
					in.Put(s)
				}
			}
		}
		var cleaned *timeseries.Set
		var rep clean.SetReport
		if err := rp.span("clean.Clean", root, req, func() (err error) {
			cleaned, rep, err = cleaner.Clean(ctx, in, clean.Meta{Benchmark: r.Benchmark, Groups: r.Groups}, copts)
			return err
		}); err != nil {
			return nil, rc, err
		}
		ana.OutliersReplaced += rep.TotalOutliers
		ana.MissingFilled += rep.TotalMissing
		raw[i] = r.Series
		cr := *r
		cr.Series = cleaned
		Xr, yr, err := cr.TrainingMatrix(kept)
		if err != nil {
			return nil, rc, err
		}
		X = append(X, Xr...)
		y = append(y, yr...)
	}

	// Rank.
	ropts := rank.Options{
		Params:    sgbrt.Params{Trees: opts.Trees, MaxDepth: 4, Seed: opts.Seed, Workers: opts.Workers},
		PruneStep: opts.PruneStep,
		Seed:      opts.Seed,
	}
	var mapm *rank.Model
	if opts.SkipEIR {
		err = rp.span("rank.FitCtx", root, req, func() (err error) {
			mapm, err = rank.FitCtx(ctx, X, y, kept, ropts)
			return err
		})
		if err != nil {
			return nil, rc, err
		}
		ana.EIRNumEvents, ana.EIRErrors = []int{len(kept)}, []float64{mapm.TestError}
		rc.eirRounds, rc.treeFits = 1, mapm.Ensemble.NumTrees()
	} else {
		var res *rank.EIRResult
		err = rp.span("rank.EIRCtx", root, req, func() (err error) {
			res, err = rank.EIRCtx(ctx, X, y, kept, ropts)
			return err
		})
		if err != nil {
			return nil, rc, err
		}
		mapm = res.MAPM()
		ana.EIRNumEvents, ana.EIRErrors = res.Curve()
		rc.eirRounds = len(res.Steps)
		for _, s := range res.Steps {
			rc.treeFits += s.Model.Ensemble.NumTrees()
		}
	}
	ana.ModelError = mapm.TestError
	ana.MAPMEvents = len(mapm.Events)
	for _, ei := range mapm.Ranking {
		ana.Importance = append(ana.Importance, cm.EventScore{Event: ei.Event, Abbrev: rp.abbrev(ei.Event), Importance: ei.Importance})
	}

	// Interact: a dedicated model over the top events, then pair ranking.
	if top := mapm.TopK(opts.TopK); len(top) >= 2 {
		names := make([]string, len(top))
		for i, ei := range top {
			names[i] = ei.Event
		}
		subX, err := project(X, kept, names)
		if err != nil {
			return nil, rc, err
		}
		var im *rank.Model
		if err := rp.span("interact.fit", root, req, func() (err error) {
			im, err = rank.FitCtx(ctx, subX, y, names, rank.Options{
				Params: sgbrt.Params{Trees: opts.Trees * 2, MaxDepth: 4, Seed: opts.Seed, Workers: opts.Workers},
				Seed:   opts.Seed,
			})
			return err
		}); err != nil {
			return nil, rc, err
		}
		rc.treeFits += im.Ensemble.NumTrees()
		var pairs []interact.PairScore
		if err := rp.span("interact.RankPairsCtx", root, req, func() (err error) {
			pairs, err = interact.RankPairsCtx(ctx, im, subX, names, interact.Options{Workers: opts.Workers})
			return err
		}); err != nil {
			return nil, rc, err
		}
		for _, ps := range pairs {
			ana.Interactions = append(ana.Interactions, cm.PairScore{A: rp.abbrev(ps.A), B: rp.abbrev(ps.B), Importance: ps.Importance})
		}
	}

	// Fingerprint the raw runs.
	vecs := make([][]float64, len(runs))
	for i, r := range runs {
		_ = rp.span("fingerprint.Embed", root, req, func() error {
			vecs[i] = fingerprint.Embed(raw[i], r.IPC)
			return nil
		})
	}
	ana.Fingerprint = fingerprint.Combine(vecs)

	// Persist the raw runs, then flush.
	for i, r := range runs {
		rec := store.Record{
			Meta:   store.RunMeta{Benchmark: r.Benchmark, RunID: r.RunID, Mode: r.Mode.String(), Intervals: len(r.IPC)},
			IPC:    r.IPC,
			Series: make(map[string][]float64, raw[i].Len()),
		}
		for _, ev := range raw[i].Events() {
			s, err := raw[i].Lookup(ev)
			if err != nil {
				return nil, rc, err
			}
			rec.Meta.Events = append(rec.Meta.Events, ev)
			rec.Series[ev] = s.Values
		}
		if err := rp.span("store.Put", root, req, func() error { return rp.db.Put(rec) }); err != nil {
			return nil, rc, err
		}
	}
	if err := rp.span("store.Flush", root, req, rp.db.Flush); err != nil {
		return nil, rc, err
	}
	return ana, rc, nil
}

func (rp *replayer) abbrev(event string) string {
	if ev, ok := rp.cat.ByName(event); ok {
		return ev.Abbrev
	}
	return event
}

// project re-orders X's columns (named by from) onto the order to.
func project(X [][]float64, from, to []string) ([][]float64, error) {
	idx := make(map[string]int, len(from))
	for i, ev := range from {
		idx[ev] = i
	}
	cols := make([]int, len(to))
	for j, ev := range to {
		i, ok := idx[ev]
		if !ok {
			return nil, fmt.Errorf("column %q missing", ev)
		}
		cols[j] = i
	}
	out := make([][]float64, len(X))
	for r, row := range X {
		sub := make([]float64, len(cols))
		for j, c := range cols {
			sub[j] = row[c]
		}
		out[r] = sub
	}
	return out, nil
}

// layerTimes sums the durations of a request's spans by span name.
func layerTimes(spans []Span, req int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Req == req && s.Parent != 0 {
			out[s.Name] += s.End - s.Start
		}
	}
	return out
}
