// Command compare summarizes benchmark runs and compares two sets of
// them, using only the standard library. A set is a directory of
// <workload>.<seed>.out files, each the standard output of one
// `cmbench/run.sh --trace 0` run (cmbench/baseline.sh writes them).
//
//	go run ./compare -bench ../BENCHMARK.json <dir>               # one set: medians and spreads
//	go run ./compare -bench ../BENCHMARK.json <parent> <change>   # verdict per workload x metric
//
// For two sets it prints, for each workload and end-to-end metric, both
// medians and quartiles, the pairs (same seed on both sides) the change
// won, and a verdict:
//
//   - improved: the change won at least 9 of every 10 pairs and the
//     medians differ by more than the parent's interquartile distance;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread exceeds the bound, so a move
//     within it cannot be told from noise, unless every change run beat
//     every parent run;
//   - no-worse: otherwise.
//
// It also compares failure shares and output checks. The exit status
// is 1 when anything regressed, failed more often, or was incorrect.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"counterminer/cmbench/stat"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// runOut is the last line of one run's output.
type runOut struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set maps workload → seed → run.
type set map[string]map[int64]runOut

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] <dir> [<change dir>]")
		return 2
	}
	spec, err := readSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	var sets []set
	for _, dir := range fs.Args() {
		s, err := readSet(dir)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		sets = append(sets, s)
	}
	if len(sets) == 1 {
		summarize(stdout, spec, sets[0])
		return 0
	}
	if !compare(stdout, spec, sets[0], sets[1]) {
		return 1
	}
	return 0
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readSet loads every <workload>.<seed>.out file of dir.
func readSet(dir string) (set, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no .out files", dir)
	}
	s := set{}
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".out")
		i := strings.LastIndexByte(base, '.')
		if i < 0 {
			return nil, fmt.Errorf("%s: name is not <workload>.<seed>.out", p)
		}
		seed, err := strconv.ParseInt(base[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: name is not <workload>.<seed>.out", p)
		}
		r, err := lastLine(p)
		if err != nil {
			return nil, err
		}
		w := base[:i]
		if s[w] == nil {
			s[w] = map[int64]runOut{}
		}
		s[w][seed] = r
	}
	return s, nil
}

func lastLine(path string) (runOut, error) {
	var r runOut
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

// values returns a workload's metric values in seed order, with the
// seeds.
func values(runs map[int64]runOut, metric string) (seeds []int64, xs []float64) {
	for seed := range runs {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	kept := seeds[:0]
	for _, seed := range seeds {
		if m, ok := runs[seed].Metrics[metric]; ok {
			kept = append(kept, seed)
			xs = append(xs, m.Value)
		}
	}
	return kept, xs
}

type summary struct {
	n              int
	q1, median, q3 float64
	spread         float64
	ok             bool
}

func summarizeValues(xs []float64) summary {
	s := summary{n: len(xs), median: stat.Median(xs)}
	if len(xs) < 2 {
		return s
	}
	s.q1, _, s.q3, _ = stat.Quartiles(xs)
	s.spread, _ = stat.Spread(xs)
	s.ok = true
	return s
}

func summarize(w io.Writer, spec benchSpec, s set) {
	fmt.Fprintf(w, "%-16s %-16s %3s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "")
	for _, wl := range spec.Workloads {
		runs := s[wl.Name]
		for _, m := range spec.EndToEnd {
			_, xs := values(runs, m.Name)
			sm := summarizeValues(xs)
			flag := ""
			switch {
			case !sm.ok:
				flag = "too few runs"
			case m.Name != "setup_s" && sm.spread > m.Bound:
				flag = "SPREAD OVER BOUND"
			case sm.spread > m.Bound/3:
				flag = "spread over a third of the bound"
			}
			fmt.Fprintf(w, "%-16s %-16s %3d %12.4f %12.4f %12.4f %8.4f %6.3f %s\n",
				wl.Name, m.Name, sm.n, sm.q1, sm.median, sm.q3, sm.spread, m.Bound, flag)
		}
		att, fail, incorrect := failures(runs)
		fmt.Fprintf(w, "%-16s failed %d of %d operations; %d runs incorrect\n", wl.Name, fail, att, incorrect)
	}
}

func failures(runs map[int64]runOut) (attempted, failed, incorrect int) {
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
		if !r.Correct {
			incorrect++
		}
	}
	return attempted, failed, incorrect
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

const (
	Improved   Verdict = "improved"
	NoWorse    Verdict = "no-worse"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// judge compares paired runs of one metric. parent and change hold the
// values of the seeds both sides ran, in the same order.
func judge(parent, change []float64, better string, bound float64) (v Verdict, won, pairs int) {
	sign := 1.0 // +1 when lower is better
	if better == "higher" {
		sign = -1
	}
	pairs = len(parent)
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			won++
		}
	}
	ps, cs := summarizeValues(parent), summarizeValues(change)
	worse := sign * (cs.median - ps.median)
	if ps.median != 0 {
		worse /= abs(ps.median)
	}
	parentIQR := ps.q3 - ps.q1
	switch {
	case pairs > 0 && 10*won >= 9*pairs && abs(cs.median-ps.median) > parentIQR && sign*(cs.median-ps.median) < 0:
		return Improved, won, pairs
	case worse > bound:
		return Regressed, won, pairs
	case ps.spread > bound && !allBetter(parent, change, sign):
		return Unresolved, won, pairs
	}
	return NoWorse, won, pairs
}

// allBetter reports whether every change run beat every parent run.
func allBetter(parent, change []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func compare(w io.Writer, spec benchSpec, parent, change set) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-16s %12s %25s %12s %25s %7s %s\n", "workload", "metric", "parent", "(q1..q3)", "change", "(q1..q3)", "won", "verdict")
	for _, wl := range spec.Workloads {
		pr, cr := parent[wl.Name], change[wl.Name]
		for _, m := range spec.EndToEnd {
			seeds, pAll := values(pr, m.Name)
			_, cAll := values(cr, m.Name)
			var pv, cv []float64
			for i, seed := range seeds {
				if c, ok := cr[seed].Metrics[m.Name]; ok {
					pv = append(pv, pAll[i])
					cv = append(cv, c.Value)
				}
			}
			if len(pv) == 0 {
				fmt.Fprintf(w, "%-16s %-16s no paired runs\n", wl.Name, m.Name)
				ok = false
				continue
			}
			v, won, pairs := judge(pv, cv, m.Better, m.Bound)
			if v == Regressed {
				ok = false
			}
			ps, cs := summarizeValues(pAll), summarizeValues(cAll)
			fmt.Fprintf(w, "%-16s %-16s %12.4f (%10.4f..%10.4f) %12.4f (%10.4f..%10.4f) %3d/%-3d %s\n",
				wl.Name, m.Name, ps.median, ps.q1, ps.q3, cs.median, cs.q1, cs.q3, won, pairs, v)
		}
		pa, pf, pi := failures(pr)
		ca, cf, ci := failures(cr)
		share := func(f, a int) float64 {
			if a == 0 {
				return 0
			}
			return float64(f) / float64(a)
		}
		fv := "no-worse"
		if share(cf, ca) > share(pf, pa) {
			fv = "WORSE"
			ok = false
		}
		if ci > 0 {
			fv += fmt.Sprintf("; %d change runs INCORRECT", ci)
			ok = false
		}
		fmt.Fprintf(w, "%-16s failure share: parent %d/%d (%d incorrect), change %d/%d: %s\n", wl.Name, pf, pa, pi, cf, ca, fv)
	}
	return ok
}
