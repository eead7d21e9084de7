package sgbrt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// fuzzProbeFeatures caps the model width the fuzz target evaluates;
// wider decoded models are only round-tripped, not predicted.
const fuzzProbeFeatures = 1 << 12

// FuzzLoad feeds arbitrary bytes to Load. Load must never panic, and
// any model it accepts must predict without panicking and survive
// Save→Load→Save with identical bytes and bit-identical predictions.
// The seed corpus (testdata/fuzz/FuzzLoad plus the ensembles added
// here) holds histogram-fit ensembles, so mutations start from real
// serialised models.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	X, y := friedmanData(rng, 120, 1)
	for _, p := range []Params{
		{Trees: 4, MaxDepth: 2, Seed: 1},
		{Trees: 3, MaxDepth: 3, ColSample: 0.5, Seed: 2},
	} {
		e, err := Fit(X, y, p)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := e.Save(&first); err != nil {
			t.Fatalf("save of a loaded model: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of a saved model: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save→Load→Save changed the encoding")
		}
		if e.NumFeatures() > fuzzProbeFeatures {
			return
		}
		for _, v := range []float64{0, 0.5, 1, -1e9, 1e9} {
			x := make([]float64, e.NumFeatures())
			for i := range x {
				x[i] = v
			}
			p1, err1 := e.Predict(x)
			p2, err2 := again.Predict(x)
			if err1 != nil || err2 != nil {
				t.Fatalf("predict: %v, %v", err1, err2)
			}
			if math.Float64bits(p1) != math.Float64bits(p2) {
				t.Fatalf("prediction at %v: %v before the round trip, %v after", v, p1, p2)
			}
		}
		e.Importances()
		e.NumTrees()
	})
}
