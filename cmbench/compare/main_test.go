package main

import "testing"

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name        string
		parent, chg []float64
		better      string
		bound       float64
		want        Verdict
	}{
		{"same runs", base, base, "lower", 0.1, NoWorse},
		{"20% faster", base, scale(base, 0.8), "lower", 0.1, Improved},
		{"20% slower", base, scale(base, 1.2), "lower", 0.1, Regressed},
		{"5% slower within bound", base, scale(base, 1.05), "lower", 0.1, NoWorse},
		{"higher is better, 20% lower", base, scale(base, 0.8), "higher", 0.1, Regressed},
		{"higher is better, 20% higher", base, scale(base, 1.2), "higher", 0.1, Improved},
		{"parent median zero", []float64{0, 0, 0}, []float64{1, 1, 1}, "higher", 0.1, Improved},
		{"change falls to zero", []float64{12, 12, 12}, []float64{0, 0, 0}, "higher", 0.25, Regressed},
		{"noisy parent", []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}, []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 104}, "lower", 0.1, Unresolved},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.parent, c.chg, c.better, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineOfTenPairs(t *testing.T) {
	parent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	// The change is much faster in 8 pairs and slower in 2: the median
	// moved, but 8/10 pairs is not enough to claim a gain.
	change := []float64{5, 5, 5, 5, 5, 5, 5, 5, 10.5, 10.5}
	v, won, pairs := judge(parent, change, "lower", 0.1)
	if won != 8 || pairs != 10 {
		t.Fatalf("won %d of %d, want 8 of 10", won, pairs)
	}
	if v == Improved {
		t.Errorf("judge = %s with 8/10 pairs won", v)
	}
}
