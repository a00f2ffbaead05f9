package radio

import (
	"math"

	"repro/internal/mathx"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// InterferenceFactor returns f_ij = ln(1 + γ_th·(d_jj/d_ij)^α), the
// Corollary 3.1 interference factor of a sender at distance dij from a
// receiver whose own link length is djj. A zero or negative dij yields
// +Inf (co-located interferer always kills the link).
func (p Params) InterferenceFactor(dij, djj float64) float64 {
	return mathx.InterferenceFactor(dij, djj, p.GammaTh, p.Alpha)
}

// SuccessProbability evaluates the Theorem 3.1 closed form
//
//	Pr(X_j ≥ γ_th) = e^{−γ_th·N0/(P·d_jj^{−α})} · Π_i 1/(1 + γ_th·(d_jj/d_ij)^α)
//
// for a receiver with link length djj and interferer distances dijs.
// The noise factor extends the paper's zero-noise derivation: with
// X = Z/(N0+I) and ν = γ_th/(P·d_jj^{−α}), Pr(X ≥ γ_th) =
// E[e^{−ν(N0+I)}] = e^{−ν·N0}·L_I(ν), so noise contributes a fixed
// multiplicative outage term; with the paper's N0 = 0 it vanishes.
//
// It is computed as exp(−(noise + Σ f_ij)) with compensated summation,
// which is both faster and more accurate than the literal product when
// many factors are close to 1.
func (p Params) SuccessProbability(djj float64, dijs []float64) float64 {
	var sum mathx.Accumulator
	sum.Add(p.NoiseFactor(djj))
	for _, dij := range dijs {
		sum.Add(p.InterferenceFactor(dij, djj))
	}
	return math.Exp(-sum.Sum())
}

// NoiseFactor returns the additive noise term γ_th·N0·d_jj^α/P that
// joins the interference-factor sum in the noise-aware feasibility
// condition
//
//	NoiseFactor + Σ f_ij ≤ γ_ε.
//
// Zero when N0 = 0 (the paper's setting).
func (p Params) NoiseFactor(djj float64) float64 {
	return p.NoiseFactorP(p.Power, djj)
}

// NoiseFactorP is NoiseFactor for a link with its own transmit power.
func (p Params) NoiseFactorP(power, djj float64) float64 {
	if p.N0 == 0 {
		return 0
	}
	return p.GammaTh * p.N0 / p.MeanGainP(power, djj)
}

// InterferenceFactorP generalizes InterferenceFactor to heterogeneous
// transmit powers: an interferer with power pi at distance dij from a
// receiver whose desired sender uses power pj over length djj has
//
//	f = ln(1 + γ_th · (pi·d_ij^{−α})/(pj·d_jj^{−α})).
//
// With pi == pj it reduces to the paper's uniform-power factor.
func (p Params) InterferenceFactorP(pi, dij, pj, djj float64) float64 {
	if dij <= 0 {
		return math.Inf(1)
	}
	return math.Log1p(p.GammaTh * (pi / pj) * mathx.RelativeGain(dij, djj, p.Alpha))
}

// FarFieldCap returns the per-unit-power cap on the interference
// factor any sender beyond distance r can exert on a receiver whose
// desired sender uses power pj over length djj:
//
//	f = ln(1 + γ_th·(p_i/p_j)·(d_jj/d_ij)^α) ≤ p_i · γ_th·d_jj^α/(p_j·r^α)
//
// for every d_ij ≥ r, using ln(1+x) ≤ x and the monotonicity of d^{−α}.
// Sparse interference backends budget their truncated far field with
// this bound, so truncation can only make feasibility answers more
// conservative, never optimistic.
func (p Params) FarFieldCap(pj, djj, r float64) float64 {
	if !(r > 0) {
		return math.Inf(1)
	}
	return p.GammaTh * pow(djj, p.Alpha) / (pj * pow(r, p.Alpha))
}

// TruncationRadius inverts FarFieldCap: the distance beyond which an
// interferer of power at most pmax contributes a factor below cutoff
// to a receiver with desired power pj over length djj,
//
//	R = d_jj · (γ_th·pmax / (p_j·cutoff))^{1/α},
//
// so that pmax·FarFieldCap(pj, djj, R) == cutoff. Senders farther than
// R may be dropped from a sparse field with per-sender error ≤ cutoff.
func (p Params) TruncationRadius(pj, djj, pmax, cutoff float64) float64 {
	if !(cutoff > 0) {
		return math.Inf(1)
	}
	return djj * pow(p.GammaTh*pmax/(pj*cutoff), 1/p.Alpha)
}

// Informed reports whether a receiver with the given total interference
// factor satisfies the Corollary 3.1 feasibility condition
// Σ f_ij ≤ γ_ε, i.e. succeeds with probability at least 1−ε.
func (p Params) Informed(totalFactor float64) bool {
	return totalFactor <= p.InformedLimit()
}

// InformedLimit is the threshold Informed compares against, γ_ε plus
// the rounding slack: Informed(x) ≡ x <= InformedLimit(). Hot loops
// that test many loads against one budget hoist it once instead of
// recomputing γ_ε (a log1p) per check.
func (p Params) InformedLimit() float64 {
	return p.GammaEps() + feasibilitySlack
}

// InformedBudget is Informed against an explicit budget instead of the
// full γ_ε: it reports totalFactor ≤ budget (+ the same rounding
// slack). Tile-sharded solving admits links inside a tile against a
// reserved budget (1−ρ)·γ_ε, leaving ρ·γ_ε of headroom for cross-tile
// interference the tile pass cannot see; the merge pass then re-checks
// against the full budget via Informed.
func (p Params) InformedBudget(totalFactor, budget float64) bool {
	return totalFactor <= budget+feasibilitySlack
}

// feasibilitySlack absorbs floating-point rounding in long factor sums
// so that schedules sitting exactly on the analytic budget (as LDP's
// worst-case construction does) are not rejected by one ulp.
const feasibilitySlack = 1e-12
