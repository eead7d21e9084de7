package interact

import (
	"sort"

	"counterminer/internal/sgbrt"
)

// anovaGridSize is the per-axis grid resolution of the interaction
// estimator.
const anovaGridSize = 12

// quantileGrid returns k representative values of xs: the
// ((i+0.5)/k)-quantiles, so the grid follows the observed distribution.
func quantileGrid(xs []float64, k int) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		idx := int((float64(i) + 0.5) / float64(k) * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// anovaInteraction evaluates the model on the (gridA × gridB) factorial
// with all other inputs at their means, removes the grand, row, and
// column means, and returns the remaining (interaction) sum of squares:
//
//	SS_int = Σ_ij (y_ij − ȳ_i· − ȳ_·j + ȳ··)²
//
// Zero means the response surface is perfectly additive over the pair.
// point is scratch space of model dimensionality.
func anovaInteraction(ens *sgbrt.Ensemble, point, means []float64, ca, cb int, gridA, gridB []float64) (float64, error) {
	ka, kb := len(gridA), len(gridB)
	y := make([][]float64, ka)
	copy(point, means)
	for i, va := range gridA {
		y[i] = make([]float64, kb)
		point[ca] = va
		for j, vb := range gridB {
			point[cb] = vb
			p, err := ens.Predict(point)
			if err != nil {
				return 0, err
			}
			y[i][j] = p
		}
	}
	// Restore scratch positions for the next pair.
	point[ca] = means[ca]
	point[cb] = means[cb]

	grand := 0.0
	rowMean := make([]float64, ka)
	colMean := make([]float64, kb)
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			rowMean[i] += y[i][j]
			colMean[j] += y[i][j]
			grand += y[i][j]
		}
	}
	for i := range rowMean {
		rowMean[i] /= float64(kb)
	}
	for j := range colMean {
		colMean[j] /= float64(ka)
	}
	grand /= float64(ka * kb)

	ss := 0.0
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			d := y[i][j] - rowMean[i] - colMean[j] + grand
			ss += d * d
		}
	}
	return ss, nil
}
