package sgbrt

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// benchMatrix builds a synthetic regression problem of n rows and p
// features where the target depends on a handful of the features, so
// tree induction does realistic split work.
func benchMatrix(n, p int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(17))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		X[i] = row
		y[i] = 3*row[0] - 0.5*row[1] + row[2]*row[3]/50 + rng.NormFloat64()
	}
	return X, y
}

// BenchmarkFit fits one model at the Rank stage's production shape:
// the 936-row training split of a default analysis over all 229
// events, 80 trees of depth 4 on 0.7 subsamples. EIR runs ~22 of these
// per analysis on shrinking column subsets.
func BenchmarkFit(b *testing.B) {
	X, y := benchMatrix(936, 229)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := Params{Trees: 80, MaxDepth: 4, Subsample: 0.7, Seed: 1, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(X, y, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitBinned fits one model at the Rank stage's shape on a
// matrix binned once outside the timer, which is what every EIR round
// repeats: 80 trees of depth 4 on 0.7 subsamples of 936 rows, over all
// 229 events (the first round) and over 120 and 40 (later rounds,
// after EIR has dropped events).
func BenchmarkFitBinned(b *testing.B) {
	for _, nf := range []int{229, 120, 40} {
		X, y := benchMatrix(936, nf)
		bm, err := Bin(X, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("features=%d/workers=%d", nf, workers), func(b *testing.B) {
				p := Params{Trees: 80, MaxDepth: 4, Subsample: 0.7, Seed: 1, Workers: workers}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FitBinnedCtx(context.Background(), bm, y, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildTree grows one depth-4 tree over a 0.7 subsample of a
// production-shape matrix binned once, the unit of work EIR repeats.
func BenchmarkBuildTree(b *testing.B) {
	X, y := benchMatrix(936, 229)
	bm, err := Bin(X, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := rand.New(rand.NewSource(1)).Perm(len(X))[:655]
	sort.Ints(rows)
	tb := newBuilder(bm, y, TreeParams{MaxDepth: 4, Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.build(rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictAll(b *testing.B) {
	X, y := benchMatrix(600, 40)
	e, err := Fit(X, y, Params{Trees: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PredictAll(X); err != nil {
			b.Fatal(err)
		}
	}
}
