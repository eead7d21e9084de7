package sgbrt

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
)

// Params configures a boosted ensemble. The defaults mirror common
// scikit-learn GradientBoostingRegressor settings, which is what the
// paper used.
type Params struct {
	// Trees is the number of boosting stages (default 200).
	Trees int
	// LearningRate is the shrinkage factor applied to each stage
	// (default 0.1).
	LearningRate float64
	// Subsample is the fraction of rows sampled (without replacement)
	// per stage — the "stochastic" in SGBRT (default 0.7).
	Subsample float64
	// ColSample is the fraction of features each tree may split on
	// (sampled per stage). Zero or >= 1 uses all features.
	ColSample float64
	// MaxDepth is the per-tree depth limit (default 3).
	MaxDepth int
	// MinLeaf is the per-leaf minimum sample count (default 1).
	MinLeaf int
	// Seed seeds the row subsampler; runs with equal seeds and inputs
	// are deterministic.
	Seed int64
	// Workers bounds fit-time parallelism (the split search); <= 0
	// uses GOMAXPROCS. The fitted model is identical for every worker
	// count.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Trees <= 0 {
		p.Trees = 200
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 0.7
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	return p
}

// Ensemble is a fitted SGBRT model.
type Ensemble struct {
	params    Params
	base      float64 // initial prediction F_0 (target mean)
	trees     []*Tree
	nFeatures int
}

// Fit trains an SGBRT ensemble on X (n rows, p features) and y using
// least-squares gradient boosting: each stage fits a regression tree to
// the current residuals on a random row subsample and is added with
// shrinkage.
func Fit(X [][]float64, y []float64, params Params) (*Ensemble, error) {
	return FitCtx(context.Background(), X, y, params)
}

// FitCtx is Fit with cooperative cancellation: the boosting loop checks
// the context between stages (never mid-tree), so cancel latency is
// bounded by one tree induction, and a done context surfaces as
// ctx.Err() with no partial ensemble.
func FitCtx(ctx context.Context, X [][]float64, y []float64, params Params) (*Ensemble, error) {
	bm, err := Bin(X, params.Workers)
	if err != nil {
		return nil, err
	}
	return FitBinnedCtx(ctx, bm, y, params)
}

// FitBinnedCtx is FitCtx over an already binned training matrix, so
// callers that fit many models on one matrix (or on column subsets of
// it, via Binned.Columns) bin it once. The ensemble is the one FitCtx
// returns for the same rows and columns.
func FitBinnedCtx(ctx context.Context, bm *Binned, y []float64, params Params) (*Ensemble, error) {
	n, p := bm.n, len(bm.cols)
	if len(y) != n {
		return nil, fmt.Errorf("sgbrt: %d rows but %d targets", n, len(y))
	}
	params = params.withDefaults()
	rng := rand.New(rand.NewSource(params.Seed))

	e := &Ensemble{params: params, nFeatures: p}
	for _, t := range y {
		e.base += t
	}
	e.base /= float64(n)

	// Current model outputs F(x_i).
	F := make([]float64, n)
	for i := range F {
		F[i] = e.base
	}
	residual := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sampleSize := int(params.Subsample * float64(n))
	if sampleSize < 2 {
		sampleSize = n
	}
	keep := make([]bool, n)
	rows := make([]int, 0, sampleSize)

	// One builder reused for every stage: trees fit the residuals, so
	// the builder's target is the residual buffer updated in place. Its
	// crew lives as long as the fit, whichever way the fit returns.
	tb := newBuilder(bm, residual, TreeParams{
		MaxDepth: params.MaxDepth,
		MinLeaf:  params.MinLeaf,
		Workers:  params.Workers,
	})
	defer tb.close()
	useColSample := params.ColSample > 0 && params.ColSample < 1
	nCols := 0
	if useColSample {
		nCols = int(params.ColSample * float64(p))
		if nCols < 1 {
			nCols = 1
		}
	}
	colPerm := make([]int, p)
	for i := range colPerm {
		colPerm[i] = i
	}
	mask := make([]bool, p)
	for stage := 0; stage < params.Trees; stage++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if useColSample {
			rng.Shuffle(p, func(a, b int) { colPerm[a], colPerm[b] = colPerm[b], colPerm[a] })
			for i := range mask {
				mask[i] = false
			}
			for _, c := range colPerm[:nCols] {
				mask[c] = true
			}
			tb.p.FeatureMask = mask
		}
		for i := range residual {
			residual[i] = y[i] - F[i]
		}
		// Stochastic row subsample without replacement, walked in row
		// order so histogram fills read the code columns sequentially.
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		clear(keep)
		for _, i := range perm[:sampleSize] {
			keep[i] = true
		}
		rows = rows[:0]
		for i, k := range keep {
			if k {
				rows = append(rows, i)
			}
		}
		tree, err := tb.build(rows)
		if err != nil {
			return nil, err
		}
		e.trees = append(e.trees, tree)
		// Update F on ALL rows (not only the subsample), serially: a
		// pass takes about 36 µs at the Rank stage's widest shape (936
		// rows, 229 events, 2-core x86), against about 1.2 ms to grow
		// the tree.
		for i := range F {
			F[i] += params.LearningRate * tree.predictRow(bm.cols, i)
		}
	}
	return e, nil
}

// NumTrees returns the number of boosting stages actually fitted.
func (e *Ensemble) NumTrees() int { return len(e.trees) }

// NumFeatures returns the input dimensionality.
func (e *Ensemble) NumFeatures() int { return e.nFeatures }

// Predict evaluates the ensemble on one feature vector.
func (e *Ensemble) Predict(x []float64) (float64, error) {
	if len(x) != e.nFeatures {
		return 0, fmt.Errorf("sgbrt: predict with %d features, model has %d", len(x), e.nFeatures)
	}
	return e.predictUnchecked(x), nil
}

// predictUnchecked sums the stages without re-validating the input
// dimensionality per tree; callers must have checked len(x) once.
func (e *Ensemble) predictUnchecked(x []float64) float64 {
	out := e.base
	for _, t := range e.trees {
		out += e.params.LearningRate * t.predictUnchecked(x)
	}
	return out
}

// PredictAll evaluates the ensemble on every row of X.
func (e *Ensemble) PredictAll(X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	for i, row := range X {
		if len(row) != e.nFeatures {
			return nil, fmt.Errorf("sgbrt: row %d has %d features, model has %d", i, len(row), e.nFeatures)
		}
		out[i] = e.predictUnchecked(row)
	}
	return out, nil
}

// Importances returns the normalised relative influence of every
// feature, eq. (10)/(11): per-tree sums of squared split improvements,
// averaged over trees, scaled so the total is 100. Features never used
// for splitting get 0.
func (e *Ensemble) Importances() []float64 {
	imp := make([]float64, e.nFeatures)
	if len(e.trees) == 0 {
		return imp
	}
	for _, t := range e.trees {
		t.featureImportance(imp)
	}
	total := 0.0
	for i := range imp {
		imp[i] /= float64(len(e.trees))
		total += imp[i]
	}
	if total > 0 {
		for i := range imp {
			imp[i] = imp[i] / total * 100
		}
	}
	return imp
}

// MAPE returns the mean absolute percentage error of the model on
// (X, y), the model-error metric of eq. (14). Rows with y == 0 are
// skipped; if every row is skipped an error is returned.
func (e *Ensemble) MAPE(X [][]float64, y []float64) (float64, error) {
	if len(X) != len(y) {
		return 0, fmt.Errorf("sgbrt: %d rows but %d targets", len(X), len(y))
	}
	sum, n := 0.0, 0
	for i, row := range X {
		if y[i] == 0 {
			continue
		}
		if len(row) != e.nFeatures {
			return 0, fmt.Errorf("sgbrt: row %d has %d features, model has %d", i, len(row), e.nFeatures)
		}
		pred := e.predictUnchecked(row)
		d := (y[i] - pred) / y[i]
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0, errors.New("sgbrt: MAPE undefined (all targets zero)")
	}
	return sum / float64(n) * 100, nil
}
