package plot

import (
	"testing"
	"unicode/utf8"
)

func TestSparklineLengthMatchesInput(t *testing.T) {
	s := Sparkline([]float64{1, 2, 3, 4, 5})
	if utf8.RuneCountInString(s) != 5 {
		t.Fatalf("sparkline has %d runes, want 5", utf8.RuneCountInString(s))
	}
}

func TestSparklineMonotone(t *testing.T) {
	s := []rune(Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}))
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("increasing data produced non-monotone sparkline %q", string(s))
		}
	}
	if s[0] == s[len(s)-1] {
		t.Fatal("range not used")
	}
}

func TestSparklineConstantAndEmpty(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	s := Sparkline([]float64{5, 5, 5})
	if utf8.RuneCountInString(s) != 3 {
		t.Fatalf("constant sparkline = %q", s)
	}
}

func TestSparklineHandlesNegatives(t *testing.T) {
	s := Sparkline([]float64{-10, -5, 0})
	if utf8.RuneCountInString(s) != 3 {
		t.Fatalf("negative-range sparkline = %q", s)
	}
}
