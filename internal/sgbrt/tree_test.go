package sgbrt

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fitTree bins X and grows one histogram tree over all of its rows.
func fitTree(X [][]float64, y []float64, p TreeParams) (*Tree, error) {
	bm, err := Bin(X, p.Workers)
	if err != nil {
		return nil, err
	}
	return newBuilder(bm, y, p).build(allIdx(len(X)))
}

func TestTreeFitsStepFunction(t *testing.T) {
	// y = 1 for x < 5, y = 9 for x >= 5: one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		X = append(X, []float64{float64(i)})
		if i < 5 {
			y = append(y, 1)
		} else {
			y = append(y, 9)
		}
	}
	tree, err := fitTree(X, y, TreeParams{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		got, err := tree.Predict(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, y[i], 1e-9) {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tree, err := fitTree(X, y, TreeParams{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Errorf("constant target leaves = %d, want 1", tree.NumLeaves())
	}
	got, _ := tree.Predict([]float64{99})
	if got != 5 {
		t.Errorf("Predict = %v, want 5", got)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 100}
		y[i] = math.Sin(X[i][0])
	}
	for _, depth := range []int{1, 2, 3, 5} {
		tree, err := fitTree(X, y, TreeParams{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Depth(); got > depth+1 {
			t.Errorf("MaxDepth %d: tree depth %d", depth, got)
		}
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = rng.Float64()
	}
	tree, err := fitTree(X, y, TreeParams{MaxDepth: 20, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tree.nodes {
		if tree.nodes[i].feature < 0 && tree.nodes[i].samples < 10 {
			t.Errorf("leaf with %d samples < MinLeaf 10", tree.nodes[i].samples)
		}
	}
}

func TestTreeSplitsOnInformativeFeature(t *testing.T) {
	// Feature 1 determines y; feature 0 is noise. The root split must
	// use feature 1 and importances must concentrate there.
	rng := rand.New(rand.NewSource(3))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		if X[i][1] > 0.5 {
			y[i] = 10
		} else {
			y[i] = -10
		}
	}
	tree, err := fitTree(X, y, TreeParams{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.nodes[0].feature != 1 {
		t.Errorf("root split on feature %d, want 1", tree.nodes[0].feature)
	}
	imp := make([]float64, 2)
	tree.featureImportance(imp)
	if imp[1] <= imp[0] {
		t.Errorf("importance = %v, feature 1 should dominate", imp)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := fitTree(nil, nil, TreeParams{}); err == nil {
		t.Error("empty X should error")
	}
	if _, err := fitTree([][]float64{{1, 2}, {3}}, []float64{1, 2}, TreeParams{}); err == nil {
		t.Error("ragged X should error")
	}
	bm, err := Bin([][]float64{{1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newBuilder(bm, []float64{1}, TreeParams{}).build(nil); err == nil {
		t.Error("empty row set should error")
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	tree, err := fitTree([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, TreeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestTreeDuplicateFeatureValues(t *testing.T) {
	// All feature values equal: no split possible, must not divide by zero.
	X := [][]float64{{5}, {5}, {5}, {5}}
	y := []float64{1, 2, 3, 4}
	tree, err := fitTree(X, y, TreeParams{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Errorf("unsplittable data leaves = %d, want 1", tree.NumLeaves())
	}
	got, _ := tree.Predict([]float64{5})
	if !approx(got, 2.5, 1e-12) {
		t.Errorf("Predict = %v, want mean 2.5", got)
	}
}

// cartNode is one node of the brute-force reference tree.
type cartNode struct {
	feature     int
	threshold   float64
	left, right *cartNode
}

// exactCART grows a reference regression tree by trying every
// midpoint between consecutive distinct values of every feature, with
// the same depth semantics and tie-break (lowest feature, then lowest
// threshold) as the histogram builder.
func exactCART(X [][]float64, y []float64, rows []int, depth, maxDepth int) *cartNode {
	nd := &cartNode{feature: -1}
	if depth > maxDepth || len(rows) < 2 {
		return nd
	}
	sse := func(rs []int) float64 {
		m := 0.0
		for _, r := range rs {
			m += y[r]
		}
		m /= float64(len(rs))
		s := 0.0
		for _, r := range rs {
			s += (y[r] - m) * (y[r] - m)
		}
		return s
	}
	parent := sse(rows)
	bestGain := 0.0
	var bestL, bestR []int
	for f := range X[0] {
		var vals []float64
		for _, r := range rows {
			vals = append(vals, X[r][f])
		}
		sort.Float64s(vals)
		for k := 0; k+1 < len(vals); k++ {
			if vals[k] == vals[k+1] {
				continue
			}
			thr := (vals[k] + vals[k+1]) / 2
			var l, r []int
			for _, row := range rows {
				if X[row][f] <= thr {
					l = append(l, row)
				} else {
					r = append(r, row)
				}
			}
			if gain := parent - sse(l) - sse(r); gain > bestGain+1e-9 {
				bestGain, nd.feature, nd.threshold, bestL, bestR = gain, f, thr, l, r
			}
		}
	}
	if nd.feature >= 0 {
		nd.left = exactCART(X, y, bestL, depth+1, maxDepth)
		nd.right = exactCART(X, y, bestR, depth+1, maxDepth)
	}
	return nd
}

// TestLowCardinalitySplitsLikeExactCART: columns with at most 64
// distinct values get one bin per value, so the histogram tree must
// split on exactly the features and thresholds a brute-force exact
// CART picks, at every node.
func TestLowCardinalitySplitsLikeExactCART(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, p := 400, 6
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			row := make([]float64, p)
			for f := range row {
				// Feature f takes 2..64 distinct levels.
				levels := 2 + (f*13+int(seed))%63
				row[f] = float64(rng.Intn(levels)) * 0.25
			}
			X[i] = row
			y[i] = row[0]*row[1] - 2*row[2] + rng.NormFloat64()
		}
		tree, err := fitTree(X, y, TreeParams{MaxDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		var compare func(i int, ref *cartNode, path string)
		compare = func(i int, ref *cartNode, path string) {
			nd := tree.nodes[i]
			if nd.feature != ref.feature || (nd.feature >= 0 && nd.threshold != ref.threshold) {
				t.Fatalf("seed %d node %q: split (%d, %v), exact CART (%d, %v)",
					seed, path, nd.feature, nd.threshold, ref.feature, ref.threshold)
			}
			if nd.feature >= 0 {
				compare(nd.left, ref.left, path+"L")
				compare(nd.right, ref.right, path+"R")
			}
		}
		compare(0, exactCART(X, y, allIdx(n), 1, 3), "")
	}
}

// TestBinnedColumnsMatchFreshBinning: a column subset of a binned
// matrix must fit the same ensemble as binning the subset afresh,
// which is what lets EIR bin once per analysis.
func TestBinnedColumnsMatchFreshBinning(t *testing.T) {
	X, y := benchMatrix(300, 30)
	full, err := Bin(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{29, 0, 4, 3, 17, 2, 1, 11}
	subX := make([][]float64, len(X))
	for i, row := range X {
		for _, f := range idx {
			subX[i] = append(subX[i], row[f])
		}
	}
	params := Params{Trees: 15, MaxDepth: 4, Seed: 8, ColSample: 0.8}
	fresh, err := Fit(subX, y, params)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := FitBinnedCtx(context.Background(), full.Columns(idx), y, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, shared) {
		t.Error("fit on a column subset of a shared binning differs from fitting the subset afresh")
	}
}
