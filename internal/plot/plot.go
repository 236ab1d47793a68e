// Package plot renders a reward curve as a one-line terminal sparkline, for
// marl-train's progress output.
package plot

import "strings"

// sparkLevels are the eighth-block characters from empty to full.
var sparkLevels = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders vs as a one-line unicode sparkline scaled to the data
// range. An empty slice yields an empty string; a constant series renders
// at mid height.
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	span := hi - lo
	for _, v := range vs {
		var level int
		if span == 0 {
			level = len(sparkLevels) / 2
		} else {
			level = 1 + int((v-lo)/span*float64(len(sparkLevels)-2))
			if level >= len(sparkLevels) {
				level = len(sparkLevels) - 1
			}
		}
		b.WriteRune(sparkLevels[level])
	}
	return b.String()
}
