package sgbrt

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestBestSplitTieBreakFeature: two identical feature columns produce
// identical gains for every candidate split; the lowest feature index
// must win regardless of scan order or worker count.
func TestBestSplitTieBreakFeature(t *testing.T) {
	// Feature 1 duplicates feature 0; feature 2 is constant noise-free
	// but uninformative.
	X := [][]float64{
		{0, 0, 7}, {1, 1, 7}, {2, 2, 7}, {3, 3, 7},
	}
	y := []float64{0, 0, 10, 10}
	for _, workers := range []int{1, 8} {
		tree, err := fitTree(X, y, TreeParams{MaxDepth: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		root := tree.nodes[0]
		if root.feature != 0 {
			t.Errorf("workers=%d: root split feature = %d, want 0 (lowest index wins ties)", workers, root.feature)
		}
		if root.threshold != 1.5 {
			t.Errorf("workers=%d: root threshold = %v, want 1.5", workers, root.threshold)
		}
	}
}

// TestBestSplitTieBreakThreshold: a symmetric target gives two
// thresholds of one feature the same gain; the lower threshold wins.
func TestBestSplitTieBreakThreshold(t *testing.T) {
	// y = [1,0,0,1] over x = [0,1,2,3]: splitting at 0.5 and at 2.5
	// yield the same gain; 1.5 is strictly worse.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 0, 0, 1}
	tree, err := fitTree(X, y, TreeParams{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.nodes[0]
	if root.feature != 0 || root.threshold != 0.5 {
		t.Errorf("root split = (feature %d, threshold %v), want (0, 0.5): lowest threshold wins ties",
			root.feature, root.threshold)
	}
}

// TestFitParallelMatchesSerial: the fitted ensemble must be
// bit-identical for any worker count — tree structure, predictions,
// and importances. The small case stays below parallelWork and runs
// serially at every worker count. The narrow case (936 rows × 24
// events, the size of a late EIR round) was below the old 1<<15
// threshold at every level and crosses the current one, so it runs on
// the crew; the production-shape case (the Rank stage's 936 training
// rows × 229 events, depth 4, 0.7 subsample) crosses either. The crew
// has at most GOMAXPROCS workers, so the test raises GOMAXPROCS for
// 3 and 8 workers to run as 3 and 8 feature blocks on any host.
func TestFitParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(11))
	n, p := 300, 12
	smallX := make([][]float64, n)
	smallY := make([]float64, n)
	for i := range smallX {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64() * 50
		}
		smallX[i] = row
		smallY[i] = 2*row[0] - row[1] + row[2]*row[3]/25 + rng.NormFloat64()*0.5
	}
	narrowX, narrowY := benchMatrix(936, 24)
	prodX, prodY := benchMatrix(936, 229)
	cases := []struct {
		name   string
		X      [][]float64
		y      []float64
		params Params
	}{
		{"300x12", smallX, smallY, Params{Trees: 25, Seed: 9, ColSample: 0.6}},
		{"936x24", narrowX, narrowY, Params{Trees: 20, MaxDepth: 4, Subsample: 0.7, Seed: 5}},
		{"936x229", prodX, prodY, Params{Trees: 20, MaxDepth: 4, Subsample: 0.7, Seed: 5}},
	}
	for _, tc := range cases {
		serial, err := Fit(tc.X, tc.y, withWorkers(tc.params, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := Fit(tc.X, tc.y, withWorkers(tc.params, workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(par.trees) != len(serial.trees) {
				t.Fatalf("%s workers=%d: %d trees, serial has %d", tc.name, workers, len(par.trees), len(serial.trees))
			}
			for k := range par.trees {
				if !reflect.DeepEqual(par.trees[k].nodes, serial.trees[k].nodes) {
					t.Fatalf("%s workers=%d: tree %d differs from serial", tc.name, workers, k)
				}
			}
			if !reflect.DeepEqual(par.Importances(), serial.Importances()) {
				t.Errorf("%s workers=%d: importances differ from serial", tc.name, workers)
			}
			ps, err1 := serial.PredictAll(tc.X)
			pp, err2 := par.PredictAll(tc.X)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(ps, pp) {
				t.Errorf("%s workers=%d: predictions differ from serial", tc.name, workers)
			}
		}
	}
}

func withWorkers(p Params, w int) Params {
	p.Workers = w
	return p
}

// TestBuildTreeDoesNotMutateBinned guards the bin-once contract: the
// ranker shares one Binned across every EIR refit, so induction must
// leave it, and the caller's row set, intact.
func TestBuildTreeDoesNotMutateBinned(t *testing.T) {
	X, y := benchMatrix(50, 4)
	bm, err := Bin(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := &Binned{n: bm.n}
	for f := range bm.cols {
		want.cols = append(want.cols, append([]float64(nil), bm.cols[f]...))
		want.codes = append(want.codes, append([]uint8(nil), bm.codes[f]...))
		want.edges = append(want.edges, append([]float64(nil), bm.edges[f]...))
	}
	rows := []int{49, 3, 17, 0, 8, 22, 31, 40, 11, 5}
	wantRows := append([]int(nil), rows...)
	tb := newBuilder(bm, y, TreeParams{MaxDepth: 4})
	defer tb.close()
	if _, err := tb.build(rows); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm, want) {
		t.Error("build mutated the binned matrix")
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Error("build mutated its row set")
	}
}
