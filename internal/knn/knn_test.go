package knn

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultK(t *testing.T) {
	if NewRegressor(0).K() != DefaultK {
		t.Errorf("K() = %d, want %d", NewRegressor(0).K(), DefaultK)
	}
	if NewRegressor(-3).K() != DefaultK {
		t.Error("negative k should fall back to default")
	}
	if NewRegressor(7).K() != 7 {
		t.Error("explicit k not honoured")
	}
}

func TestFitValidation(t *testing.T) {
	r := NewRegressor(3)
	if err := r.Fit(nil, nil); err == nil {
		t.Error("Fit on empty should error")
	}
	if err := r.Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("Fit on unequal lengths should error")
	}
	if _, err := NewRegressor(3).Predict(1); err == nil {
		t.Error("Predict before Fit should error")
	}
}

func TestPredictExactNeighbourhood(t *testing.T) {
	r := NewRegressor(2)
	if err := r.Fit([]float64{0, 1, 10, 11}, []float64{2, 4, 100, 102}); err != nil {
		t.Fatal(err)
	}
	// Near 0.5: neighbours are x=0 and x=1 => (2+4)/2 = 3.
	got, err := r.Predict(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 3, 1e-12) {
		t.Errorf("Predict(0.5) = %v, want 3", got)
	}
	// Near 10.5: (100+102)/2 = 101.
	got, _ = r.Predict(10.5)
	if !approx(got, 101, 1e-12) {
		t.Errorf("Predict(10.5) = %v, want 101", got)
	}
}

func TestPredictFewerPointsThanK(t *testing.T) {
	r := NewRegressor(10)
	if err := r.Fit([]float64{0, 1}, []float64{3, 5}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 4, 1e-12) {
		t.Errorf("Predict with k>n = %v, want mean 4", got)
	}
}

func TestImputeLinearRamp(t *testing.T) {
	// A smooth ramp: imputed values should be near the local level.
	values := make([]float64, 50)
	for i := range values {
		values[i] = float64(i) * 2
	}
	truth := values[25]
	values[25] = 0
	out, err := ImputeSeries(values, []int{25}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[25]-truth) > 5 {
		t.Errorf("imputed %v, truth %v", out[25], truth)
	}
	// Input not mutated.
	if values[25] != 0 {
		t.Error("ImputeSeries mutated its input")
	}
	// Non-missing positions untouched.
	if out[10] != values[10] {
		t.Error("non-missing position changed")
	}
}

func TestImputeConsecutiveRun(t *testing.T) {
	values := make([]float64, 40)
	for i := range values {
		values[i] = 100
	}
	missing := []int{10, 11, 12, 13}
	for _, i := range missing {
		values[i] = 0
	}
	out, err := ImputeSeries(values, missing, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range missing {
		if !approx(out[i], 100, 1e-9) {
			t.Errorf("imputed[%d] = %v, want 100", i, out[i])
		}
	}
}

func TestImputeValidation(t *testing.T) {
	if _, err := ImputeSeries(nil, nil, 5); err == nil {
		t.Error("empty series should error")
	}
	if _, err := ImputeSeries([]float64{1, 2}, []int{5}, 5); err == nil {
		t.Error("out-of-range index should error")
	}
	if _, err := ImputeSeries([]float64{1, 2}, []int{-1}, 5); err == nil {
		t.Error("negative index should error")
	}
	if _, err := ImputeSeries([]float64{1, 2}, []int{0, 1}, 5); err == nil {
		t.Error("all-missing should error")
	}
}

func TestImputeNoMissingIsIdentity(t *testing.T) {
	values := []float64{1, 2, 3}
	out, err := ImputeSeries(values, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if out[i] != values[i] {
			t.Errorf("identity impute changed index %d", i)
		}
	}
}

// Property: imputed values lie within [min, max] of the observed values
// (KNN averages cannot extrapolate).
func TestImputeBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(200)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()*1000 + 1
		}
		var missing []int
		for i := range values {
			if rng.Float64() < 0.2 {
				missing = append(missing, i)
			}
		}
		if len(missing) == n {
			missing = missing[:n-1]
		}
		min, max := math.Inf(1), math.Inf(-1)
		skip := map[int]bool{}
		for _, i := range missing {
			skip[i] = true
		}
		for i, v := range values {
			if !skip[i] {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
		}
		out, err := ImputeSeries(values, missing, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range missing {
			if out[i] < min-1e-9 || out[i] > max+1e-9 {
				t.Fatalf("trial %d: imputed %v outside [%v, %v]", trial, out[i], min, max)
			}
		}
	}
}

// TestNeighbourOrderMatchesSortSlice pins predictWith's sort to the
// order sort.Slice gives, ties included: which of two equally distant
// neighbours makes the k cut, and the order the k values are summed
// in, decide the imputed bits. Sample indices as features make ties
// the rule (x−d and x+d), and the sizes span the insertion-sort and
// pdqsort regimes.
func TestNeighbourOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		r := NewRegressor(1 + rng.Intn(8))
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n/2 + 1))
			ys[i] = rng.NormFloat64()
		}
		if err := r.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		x := float64(rng.Intn(n/2 + 1))
		got := make([]neighbour, n)
		r.predictWith(got, x)
		want := make([]neighbour, n)
		for i := range want {
			want[i] = neighbour{dist: math.Abs(xs[i] - x), y: ys[i]}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].dist < want[j].dist })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, x=%v): neighbour order differs from sort.Slice", trial, n, x)
		}
	}
}
