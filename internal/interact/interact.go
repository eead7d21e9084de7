// Package interact implements CounterMiner's interaction ranker
// (§III-D). An event pair interacts when its joint effect on performance
// is not the sum of its separate effects. For each pair of important
// events the ranker evaluates the performance model on a quantile grid
// over the pair — with every other event held at its mean — removes the
// grid's row and column effects exactly (a two-way ANOVA), and takes the
// remaining sum of squares as the interaction intensity. Intensities
// are normalised across pairs into percentages (eq. (13)).
//
// The paper measures intensity as the residual variance of a linear
// regression on the pair (eq. (12)). A linear null model cannot absorb
// the univariate staircase of a tree-ensemble oracle, so that residual
// mixes main-effect curvature into the interaction score; the ANOVA
// residual is exactly the surface's non-additive part.
//
// "Performance with all other events at their means" cannot be
// re-measured on demand, so, as in the paper, the fitted SGBRT
// performance model stands in for the machine: it is queried on
// synthetic points that vary only the pair under study.
package interact

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"counterminer/internal/parallel"
	"counterminer/internal/rank"
)

// PairScore is one ranked event-pair interaction.
type PairScore struct {
	// A and B are the pair's event names, in the order given.
	A, B string
	// Intensity is the raw interaction sum of squares.
	Intensity float64
	// Importance is the normalised share of eq. (13), in percent.
	Importance float64
}

// Key renders the pair as "A-B".
func (p PairScore) Key() string { return p.A + "-" + p.B }

// Options configures the interaction ranking.
type Options struct {
	// Workers bounds how many pairs are scored concurrently; <= 0 uses
	// GOMAXPROCS. Results are identical for every worker count.
	Workers int
}

// maxSamples bounds how many observation rows (strided evenly) the
// quantile grids are drawn from.
const maxSamples = 200

// RankPairs scores every unordered pair among `important` (a subset of
// the model's events) and returns the pairs sorted by descending
// importance. X must have the model's column layout (one column per
// m.Events entry).
func RankPairs(m *rank.Model, X [][]float64, important []string, opts Options) ([]PairScore, error) {
	return RankPairsCtx(context.Background(), m, X, important, opts)
}

// RankPairsCtx is RankPairs with cooperative cancellation: the pair
// pool checks the context between pairs, so a done context aborts
// within one pairwise fit and surfaces as ctx.Err().
func RankPairsCtx(ctx context.Context, m *rank.Model, X [][]float64, important []string, opts Options) ([]PairScore, error) {
	if m == nil || m.Ensemble == nil {
		return nil, errors.New("interact: nil model")
	}
	if len(X) == 0 {
		return nil, errors.New("interact: empty observations")
	}
	if len(important) < 2 {
		return nil, fmt.Errorf("interact: need at least 2 events, got %d", len(important))
	}

	colIdx := make(map[string]int, len(m.Events))
	for i, ev := range m.Events {
		colIdx[ev] = i
	}
	for _, ev := range important {
		if _, ok := colIdx[ev]; !ok {
			return nil, fmt.Errorf("interact: event %q not in model", ev)
		}
	}
	if len(X[0]) != len(m.Events) {
		return nil, fmt.Errorf("interact: X has %d columns, model has %d events", len(X[0]), len(m.Events))
	}

	// Column means — the "all other events at their respective means"
	// baseline.
	means := make([]float64, len(m.Events))
	for _, row := range X {
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(len(X))
	}

	// Per-column quantile grids over an evenly strided row subset.
	stride := 1
	if len(X) > maxSamples {
		stride = len(X) / maxSamples
	}
	grids := make(map[int][]float64, len(important))
	for _, ev := range important {
		c := colIdx[ev]
		var col []float64
		for i := 0; i < len(X); i += stride {
			col = append(col, X[i][c])
		}
		grids[c] = quantileGrid(col, anovaGridSize)
	}

	// Enumerate the pairs up front, then score them concurrently: every
	// pairwise fit is independent, each result lands in its own indexed
	// slot, and the normalisation below runs serially in pair order, so
	// the ranking is identical for every worker count.
	type pairIdx struct{ ai, bi int }
	var pairs []pairIdx
	for ai := 0; ai < len(important); ai++ {
		for bi := ai + 1; bi < len(important); bi++ {
			pairs = append(pairs, pairIdx{ai, bi})
		}
	}
	workers := parallel.Workers(opts.Workers)
	points := make([][]float64, workers)
	for w := range points {
		points[w] = append([]float64(nil), means...)
	}
	scores := make([]PairScore, len(pairs))
	err := parallel.ForEachWorkerCtx(ctx, len(pairs), workers, func(w, k int) error {
		a, b := important[pairs[k].ai], important[pairs[k].bi]
		ca, cb := colIdx[a], colIdx[b]
		point := points[w]

		// Evaluate the performance model on the pair's grid, everything
		// else at its mean, and take the two-way interaction sum of
		// squares.
		v, err := anovaInteraction(m.Ensemble, point, means, ca, cb, grids[ca], grids[cb])
		if err != nil {
			return fmt.Errorf("interact: pair %s-%s: %w", a, b, err)
		}
		scores[k] = PairScore{A: a, B: b, Intensity: v}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// eq. (13): normalise across pairs.
	total := 0.0
	for _, s := range scores {
		total += s.Intensity
	}
	if total > 0 {
		for i := range scores {
			scores[i].Importance = scores[i].Intensity / total * 100
		}
	}
	sort.SliceStable(scores, func(i, j int) bool {
		return scores[i].Importance > scores[j].Importance
	})
	return scores, nil
}

// TopK returns the k strongest interactions (fewer if fewer exist).
func TopK(scores []PairScore, k int) []PairScore {
	if k > len(scores) {
		k = len(scores)
	}
	return append([]PairScore(nil), scores[:k]...)
}

// ContainsEvent reports whether the pair involves the named event.
func (p PairScore) ContainsEvent(ev string) bool {
	return p.A == ev || p.B == ev
}
