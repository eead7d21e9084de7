package stat

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python 3:
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3, err := Quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one value: want an error")
	}
}

func TestSpread(t *testing.T) {
	s, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", s, want)
	}
	if s, _ := Spread([]float64{0, 0, 0}); s != 0 {
		t.Errorf("Spread of constant zeros = %v, want 0", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p, v  float64
		label string
	}{
		// 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
		{1000, 99, 990, "p99"},
		// 120 samples: p95 leaves 6 beyond, p90 leaves 12.
		{120, 90, 108, "p90"},
		// 100 samples: p90 leaves exactly 10 beyond.
		{100, 90, 90, "p90 at the boundary"},
		// 99 samples: p90 is rank 90 with 9 beyond, so p75 it is.
		{99, 75, 75, "p75"},
		// 20 samples: only the median has 10 beyond.
		{20, 50, 10, "p50"},
		// 12 samples: nothing qualifies, so the maximum is reported.
		{12, 100, 12, "max"},
	}
	for _, c := range cases {
		p, v := Tail(seq(c.n))
		if p != c.p || v != c.v {
			t.Errorf("%s: Tail(1..%d) = p%v %v, want p%v %v", c.label, c.n, p, v, c.p, c.v)
		}
		if p < 100 {
			_, beyond := Percentile(seq(c.n), p)
			if beyond < MinBeyond {
				t.Errorf("%s: only %d samples beyond p%v", c.label, beyond, p)
			}
		}
	}
}

func TestTailCountsMissesAsInfinite(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if p, v := Tail(xs); p != 90 || !math.IsInf(v, 1) {
		t.Errorf("Tail with 11 misses in 100 = p%v %v, want p90 +Inf", p, v)
	}
}
