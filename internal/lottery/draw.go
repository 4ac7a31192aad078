package lottery

import (
	"fmt"

	"repro/internal/random"
)

// Draw holds one lottery over a slice of weights (Figure 1): it picks
// a uniform value in [0, total) and returns the first index whose
// running weight sum exceeds it. Zero weights never win. The boolean
// is false, and no random number is consumed, when the total is not
// positive; callers apply their own fallback. This is List.Draw's
// contract, so a slice and a List holding the same weights in the same
// order pick the same winners from the same stream. A negative weight
// panics, as in List.Add.
func Draw(src random.Source, weights []float64) (int, bool) {
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("lottery: negative weight %v at %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		return 0, false
	}
	winning := Uniform(src, total)
	var sum float64
	for i, w := range weights {
		sum += w
		if winning < sum {
			return i, true
		}
	}
	// Float round-off can leave winning == total after summation; the
	// last positive weight wins in that measure-zero case.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, true
		}
	}
	return 0, false
}

// DrawVictim holds the inverse lottery of §6.2: weights are the
// callers' inverse weights w_i = (1 - t_i/T) · m_i/M, so a client
// holding more of the resource and fewer tickets is likelier to lose a
// unit. When every weight is 0 — a lone holder is fully funded, since
// 1 - t/T = 0 — the largest holder in held (the first on a tie) is the
// victim, because a unit must still be revoked. held is parallel to
// weights and both are non-empty.
func DrawVictim(src random.Source, weights []float64, held []int64) int {
	if i, ok := Draw(src, weights); ok {
		return i
	}
	best := 0
	for i, h := range held {
		if h > held[best] {
			best = i
		}
	}
	return best
}
