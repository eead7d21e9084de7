package counterminer

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/fingerprint"
	"counterminer/internal/sim"
	"counterminer/internal/timeseries"
)

// This file is the adoption path for real counter data: everything
// needed to run CounterMiner's cleaner and rankers on measurements that
// did NOT come from the built-in simulator — e.g. perf-stat output
// post-processed into per-interval rows.

// DataSet is externally collected counter data: one row per sampling
// interval, one column per event, plus the per-interval performance
// metric (typically IPC from the fixed counters).
type DataSet struct {
	// Events names the columns of X.
	Events []string
	// X[i][j] is event j's value in interval i.
	X [][]float64
	// Y[i] is the performance metric in interval i.
	Y []float64
}

// Validate checks the data set's shape and that every event name is
// non-empty and distinct.
func (d *DataSet) Validate() error {
	if len(d.Events) == 0 {
		return errors.New("counterminer: data set without events")
	}
	seen := make(map[string]bool, len(d.Events))
	for _, ev := range d.Events {
		if ev == "" {
			return errors.New("counterminer: empty event name")
		}
		if seen[ev] {
			return fmt.Errorf("counterminer: duplicate event %q", ev)
		}
		seen[ev] = true
	}
	if len(d.X) == 0 {
		return errors.New("counterminer: data set without rows")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("counterminer: %d rows but %d performance values", len(d.X), len(d.Y))
	}
	for i, row := range d.X {
		if len(row) != len(d.Events) {
			return fmt.Errorf("counterminer: row %d has %d values, want %d", i, len(row), len(d.Events))
		}
	}
	return nil
}

// Clean runs the configured data cleaner (opts.Cleaner, default the
// §III-B threshold+KNN pipeline) over every event column in place,
// treating each column as that event's time series. It returns the
// totals. External data carries no multiplexing metadata, so cleaners
// run with an unknown group count and fall back to purely data-driven
// repair.
func (d *DataSet) Clean(opts clean.Options) (outliers, missing int, err error) {
	return d.CleanContext(context.Background(), opts)
}

// CleanContext is Clean with cooperative cancellation.
func (d *DataSet) CleanContext(ctx context.Context, opts clean.Options) (outliers, missing int, err error) {
	if err := d.Validate(); err != nil {
		return 0, 0, err
	}
	cleaner, err := clean.Lookup(opts.Cleaner)
	if err != nil {
		return 0, 0, err
	}
	cleaned, rep, err := cleaner.Clean(ctx, d.series(), clean.Meta{Benchmark: "external"}, opts)
	if err != nil {
		return 0, 0, fmt.Errorf("counterminer: %w", err)
	}
	for j, ev := range d.Events {
		s, err := cleaned.Lookup(ev)
		if err != nil {
			return 0, 0, fmt.Errorf("counterminer: clean column %s: %w", ev, err)
		}
		for i := range d.X {
			d.X[i][j] = s.Values[i]
		}
	}
	return rep.TotalOutliers, rep.TotalMissing, nil
}

// Fingerprint returns the data set's workload fingerprint: the
// counter-signature embedding of its raw event columns, with Y as the
// IPC series, treated as one run (see internal/fingerprint). The
// classification index is built from the raw series the pipeline
// stores, so an uncleaned perf capture is embedded exactly as a stored
// run would be.
func (d *DataSet) Fingerprint() ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return fingerprint.Combine([][]float64{fingerprint.Embed(d.series(), d.Y)}), nil
}

// series returns the data set's event columns as a series set. The
// columns are copies: cleaning the set leaves d untouched.
func (d *DataSet) series() *timeseries.Set {
	set := timeseries.NewSet()
	for j, ev := range d.Events {
		col := make([]float64, len(d.X))
		for i := range d.X {
			col[i] = d.X[i][j]
		}
		set.Put(timeseries.New(ev, col))
	}
	return set
}

// AnalyzeDataContext runs the pipeline's mining stages — cleaning,
// EIR/MAPM importance ranking, interaction ranking, and workload
// fingerprinting — on an external data set treated as one run, under
// the given context with the AnalyzeContext cancellation contract
// (stage plan Clean → Rank → Interact → Fingerprint). The simulator is
// not involved; this is the entry point for real perf measurements.
// d is not modified, and the fingerprint is that of the raw data
// (DataSet.Fingerprint), whichever cleaner ran. Options fields that
// concern collection (Runs, Events, StorePath, Source, Sink, Retry,
// MinRuns) are ignored, and event names are reported as given.
func AnalyzeDataContext(ctx context.Context, d *DataSet, opts Options) (*Analysis, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	// Validate before defaulting, so out-of-range clean options are
	// rejected rather than silently raised onto the paper defaults.
	if err := opts.CleanOptions.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	cleaner, err := clean.Lookup(opts.CleanOptions.Cleaner)
	if err != nil {
		return nil, err
	}
	// No catalogue, source or sink: external event names pass through
	// abbrev unchanged, and nothing is collected or persisted.
	p := &Pipeline{opts: opts, cleaner: cleaner}
	ar := p.newAnalysisRun(sim.Profile{Name: "external"}, d.Events)
	ar.kept = d.Events
	ar.runs = []*collector.Run{{Benchmark: "external", Series: d.series(), IPC: d.Y}}
	return ar.execute(ctx, []stage{
		{StageClean, ar.clean},
		{StageRank, ar.rank},
		{StageInteract, ar.interact},
		{StageFingerprint, ar.fingerprint},
	})
}

// AnalyzeData runs AnalyzeDataContext with a background context.
func AnalyzeData(d *DataSet, opts Options) (*Analysis, error) {
	return AnalyzeDataContext(context.Background(), d, opts)
}

// LoadCSV reads a data set in the layout ExportCSV (and cmstore
// -export) writes: a header "interval,<event...>,ipc" followed by one
// row per interval. The interval column is checked for monotonicity
// but otherwise ignored.
func LoadCSV(r io.Reader) (*DataSet, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("counterminer: csv header: %w", err)
	}
	if len(header) < 3 {
		return nil, fmt.Errorf("counterminer: csv needs interval, >=1 event, and ipc columns; got %d", len(header))
	}
	if header[0] != "interval" {
		return nil, fmt.Errorf("counterminer: first csv column is %q, want \"interval\"", header[0])
	}
	if header[len(header)-1] != "ipc" {
		return nil, fmt.Errorf("counterminer: last csv column is %q, want \"ipc\"", header[len(header)-1])
	}
	d := &DataSet{Events: append([]string(nil), header[1:len(header)-1]...)}
	prev := -1
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("counterminer: csv row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("counterminer: csv row has %d fields, want %d", len(rec), len(header))
		}
		iv, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("counterminer: interval %q: %w", rec[0], err)
		}
		if iv <= prev {
			return nil, fmt.Errorf("counterminer: interval column not increasing at %d", iv)
		}
		prev = iv
		row := make([]float64, len(d.Events))
		for j := range row {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("counterminer: value %q: %w", rec[j+1], err)
			}
			row[j] = v
		}
		y, err := strconv.ParseFloat(rec[len(rec)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("counterminer: ipc %q: %w", rec[len(rec)-1], err)
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
