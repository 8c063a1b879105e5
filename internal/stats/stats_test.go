package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); m != 5 {
		t.Fatalf("mean=%v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestLeastSquaresExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f := LeastSquares(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit=%+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2=%v", f.R2)
	}
}

func TestLeastSquaresDegenerate(t *testing.T) {
	if f := LeastSquares([]float64{5}, []float64{3}); f.Slope != 0 {
		t.Fatal("single point should give zero fit")
	}
	f := LeastSquares([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || f.Intercept != 2 {
		t.Fatalf("vertical data fit=%+v", f)
	}
}

func TestLogLogSlopeRecoversExponent(t *testing.T) {
	f := func(c float64) bool {
		exp := 1 + math.Mod(math.Abs(c), 2) // exponent in [1,3)
		var xs, ys []float64
		for _, x := range []float64{10, 20, 40, 80, 160} {
			xs = append(xs, x)
			ys = append(ys, 3*math.Pow(x, exp))
		}
		fit := LogLogSlope(xs, ys)
		return math.Abs(fit.Slope-exp) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	fit := LogLogSlope([]float64{0, 10, 100}, []float64{5, 10, 100})
	if math.Abs(fit.Slope-1) > 1e-9 {
		t.Fatalf("slope=%v, want 1", fit.Slope)
	}
}

func TestLogLogNoisyFit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for x := 100.0; x <= 10000; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 2*math.Pow(x, 1.5)*(1+0.05*rng.NormFloat64()))
	}
	fit := LogLogSlope(xs, ys)
	if math.Abs(fit.Slope-1.5) > 0.15 {
		t.Fatalf("noisy slope=%v", fit.Slope)
	}
	if fit.R2 < 0.95 {
		t.Fatalf("R2=%v", fit.R2)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("longer-name", 42)
	tb.AddNote("a note %d", 7)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "longer-name  42") {
		t.Errorf("bad alignment:\n%s", out)
	}
	if !strings.Contains(out, "alpha        1.5") {
		t.Errorf("bad float rendering:\n%s", out)
	}
	if !strings.Contains(out, "note: a note 7") {
		t.Error("missing note")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2.0:    "2",
		0.3333: "0.333",
		0:      "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v)=%q, want %q", in, got, want)
		}
	}
}
