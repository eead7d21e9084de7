package interact

import (
	"math/rand"
	"testing"

	"counterminer/internal/rank"
	"counterminer/internal/sgbrt"
)

// interactionData builds y = 3·x0·x1 + x2 + x3 + noise: the (x0, x1)
// pair interacts strongly, everything else is additive.
func interactionData(rng *rand.Rand, n int) ([][]float64, []float64, []string) {
	events := []string{"E0", "E1", "E2", "E3", "E4"}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.Float64() * 2
		}
		X[i] = row
		y[i] = 3*row[0]*row[1] + row[2] + row[3] + rng.NormFloat64()*0.05
	}
	return X, y, events
}

func fitModel(t *testing.T, X [][]float64, y []float64, events []string) *rank.Model {
	t.Helper()
	m, err := rank.Fit(X, y, events, rank.Options{
		Params: sgbrt.Params{Trees: 120, MaxDepth: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRankPairsFindsInteractingPair(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y, events := interactionData(rng, 900)
	m := fitModel(t, X, y, events)
	scores, err := RankPairs(m, X, []string{"E0", "E1", "E2", "E3"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 6 { // C(4,2)
		t.Fatalf("pairs = %d, want 6", len(scores))
	}
	if !(scores[0].A == "E0" && scores[0].B == "E1") {
		t.Errorf("top pair = %s, want E0-E1 (scores %+v)", scores[0].Key(), scores[:3])
	}
	// Normalisation.
	total := 0.0
	for _, s := range scores {
		total += s.Importance
		if s.Intensity < 0 {
			t.Errorf("negative intensity %v for %s", s.Intensity, s.Key())
		}
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("importance total = %v", total)
	}
	// Descending.
	for i := 1; i < len(scores); i++ {
		if scores[i].Importance > scores[i-1].Importance {
			t.Fatal("scores not descending")
		}
	}
	// The additive pair must rank far below the interacting pair.
	for _, s := range scores {
		if s.A == "E2" && s.B == "E3" && s.Importance > scores[0].Importance/3 {
			t.Errorf("additive pair E2-E3 importance %v too close to top %v",
				s.Importance, scores[0].Importance)
		}
	}
}

func TestRankPairsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y, events := interactionData(rng, 300)
	m := fitModel(t, X, y, events)
	if _, err := RankPairs(nil, X, events, Options{}); err == nil {
		t.Error("nil model should error")
	}
	if _, err := RankPairs(m, nil, events, Options{}); err == nil {
		t.Error("empty X should error")
	}
	if _, err := RankPairs(m, X, []string{"E0"}, Options{}); err == nil {
		t.Error("single event should error")
	}
	if _, err := RankPairs(m, X, []string{"E0", "NOPE"}, Options{}); err == nil {
		t.Error("unknown event should error")
	}
	bad := [][]float64{{1, 2}}
	if _, err := RankPairs(m, bad, []string{"E0", "E1"}, Options{}); err == nil {
		t.Error("column mismatch should error")
	}
}

func TestTopKAndContains(t *testing.T) {
	scores := []PairScore{
		{A: "a", B: "b", Importance: 50},
		{A: "c", B: "d", Importance: 30},
		{A: "e", B: "f", Importance: 20},
	}
	top := TopK(scores, 2)
	if len(top) != 2 || top[0].Key() != "a-b" {
		t.Errorf("TopK = %+v", top)
	}
	if len(TopK(scores, 10)) != 3 {
		t.Error("TopK overflow not clamped")
	}
	if !scores[0].ContainsEvent("a") || !scores[0].ContainsEvent("b") || scores[0].ContainsEvent("c") {
		t.Error("ContainsEvent wrong")
	}
}
