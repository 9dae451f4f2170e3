"""Trace-space smoothness classifiers and direct smoothness measurement.

Given trace data on a zero sequence and a smoothness class, the
classifier transforms the data to its conjugate sequence and tests the
class-specific decay of that sequence.  Finite data cannot certify an
asymptotic condition, so verdicts follow a deterministic, documented
decision rule over the boundary-most half of the indices and the raw
per-index ratios are always exposed for trend studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct
from .boundary import BoundaryFunction, _require_h2, bmo_norm, lp_norm, riesz_project
from .core import DiagnosticsReport, SmoothnessDescriptor, ValueSequence, ZeroSequence
from .interp import conjugate_sequence, trace

# decision-rule constants
RATIO_SPREAD = 10.0      # "holds" needs window max/median at most this
GROWTH_FACTOR = 1.5      # "fails" needs this much growth per index ...
MIN_RUN = 4              # ... across a terminal run of at least this many
GEVREY_FLOOR = 1e-3      # "holds" floor for the fitted Gevrey constant


@dataclass
class DecayVerdict:
    """Outcome of a decay test: verdict plus the evidence it rests on."""

    descriptor: SmoothnessDescriptor | str
    verdict: str                      # holds | fails | inconclusive
    fitted_constant: float
    per_index_ratios: np.ndarray
    window_start: int
    rule: dict = field(default_factory=dict)
    data_functional: float | None = None

    def to_dict(self) -> dict:
        desc = (
            self.descriptor.to_dict()
            if isinstance(self.descriptor, SmoothnessDescriptor)
            else {"kind": self.descriptor}
        )
        out = {
            "class": desc,
            "satisfied": self.verdict,
            "fitted_constant": self.fitted_constant,
            "per_index_ratios": [float(r) for r in self.per_index_ratios],
            "window_start": self.window_start,
            "rule": self.rule,
        }
        if self.data_functional is not None:
            out["data_functional"] = self.data_functional
        return out


def _boundary_order(zeros: ZeroSequence) -> tuple[np.ndarray, np.ndarray]:
    # indices ordered by the gap 1 - |z_k| decreasing, i.e. boundary-most
    # last, and the gaps in that order
    gaps = 1.0 - zeros.moduli
    order = np.argsort(-gaps, kind="stable")
    return order, gaps[order]


def _terminal_geometric_run(win: np.ndarray, factor: float, decay: bool = False) -> int:
    """Length of the terminal run moving by >= factor per step.

    Counts values in the longest run ending at the last index whose
    consecutive ratios grow (or, with decay=True, shrink) by at least the
    stated factor per step.
    """
    count = 1
    for i in range(win.size - 1, 0, -1):
        a, b = win[i - 1], win[i]
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0 or b <= 0:
            break
        step = a / b if decay else b / a
        if step >= factor:
            count += 1
        else:
            break
    return count


def _decide_bounded(ratios_ordered: np.ndarray, window_start: int) -> tuple[str, dict]:
    """Generic rule for 'the ratios should stay bounded'.

    fails on a geometric divergence signature: the last MIN_RUN or more
    window ratios each grow by at least GROWTH_FACTOR per index.  holds
    when the window max/median stays within RATIO_SPREAD.  Otherwise
    inconclusive.  Slower growth (linear, say) is deliberately not
    flagged: at desk scale it is indistinguishable from bounded data
    approaching its limit, and only trend studies over nested truncations
    can separate the two.
    """
    win = ratios_ordered[window_start:]
    rule = {
        "window_start": int(window_start),
        "spread_threshold": RATIO_SPREAD,
        "growth_per_index": GROWTH_FACTOR,
        "min_run": MIN_RUN,
    }
    finite = win[np.isfinite(win)]
    if finite.size == 0:
        return "inconclusive", rule
    if _terminal_geometric_run(win, GROWTH_FACTOR) >= MIN_RUN:
        return "fails", rule
    med = float(np.median(finite))
    if med > 0 and float(finite.max()) / med <= RATIO_SPREAD:
        return "holds", rule
    if med == 0 and float(finite.max()) == 0:
        return "holds", rule
    return "inconclusive", rule


def _decide_lower_bounded(ratios_ordered: np.ndarray, window_start: int) -> tuple[str, dict]:
    """Rule for 'the ratios should stay above a positive floor' (Gevrey)."""
    win = ratios_ordered[window_start:]
    rule = {
        "window_start": int(window_start),
        "floor": GEVREY_FLOOR,
        "decay_per_index": GROWTH_FACTOR,
        "min_run": MIN_RUN,
    }
    low = float(np.min(win))
    if low >= GEVREY_FLOOR:
        return "holds", rule
    if low <= 0:
        return "fails", rule
    if _terminal_geometric_run(win, GROWTH_FACTOR, decay=True) >= MIN_RUN:
        return "fails", rule
    return "inconclusive", rule


def _class_ratios(
    gaps: np.ndarray, transformed: np.ndarray, x: SmoothnessDescriptor
) -> np.ndarray:
    mags = np.abs(transformed)
    if x.kind == "lipschitz":
        return mags / gaps ** x.alpha
    if x.kind == "bmo":
        return mags
    if x.kind == "gevrey":
        with np.errstate(divide="ignore"):
            return -(gaps ** x.alpha) * np.log(mags)
    # sobolev: partial sums of the weighted series, in boundary order
    terms = mags ** x.p * gaps ** (1.0 - x.s * x.p)
    return np.cumsum(terms)


def classify_trace(
    zeros: ZeroSequence, values: ValueSequence, x: SmoothnessDescriptor
) -> DecayVerdict:
    """Test whether trace data is consistent with the smoothness class x.

    Computes the conjugate sequence of the data and forms the per-class
    ratios: magnitude over (1-|z|)**alpha for the Lipschitz scale, plain
    magnitudes for mean oscillation, the fitted exponential-rate constant
    for the Gevrey scale, and weighted partial sums for the Sobolev
    scale.  The verdict applies the documented decision rule on the
    boundary-most half of the indices.
    """
    transformed = conjugate_sequence(zeros, values).values
    order, gaps = _boundary_order(zeros)
    ratios = _class_ratios(gaps, transformed[order], x)
    window_start = len(zeros) // 2
    if x.kind == "gevrey":
        verdict, rule = _decide_lower_bounded(ratios, window_start)
        fitted = float(np.min(ratios[window_start:]))
    else:
        verdict, rule = _decide_bounded(ratios, window_start)
        finite = ratios[np.isfinite(ratios)]
        fitted = float(finite.max()) if finite.size else math.inf
    return DecayVerdict(
        descriptor=x,
        verdict=verdict,
        fitted_constant=fitted,
        per_index_ratios=ratios,
        window_start=window_start,
        rule=rule,
        data_functional=values.ell_p_gamma(zeros, 2.0, 1.0),
    )


def log_growth_check(zeros: ZeroSequence, values: ValueSequence) -> DecayVerdict:
    """Test |w_k| = O(log(2 / (1 - |z_k|))) along the sequence."""
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
    order, gaps = _boundary_order(zeros)
    ratios = np.abs(values.values[order]) / np.log(2.0 / gaps)
    window_start = len(zeros) // 2
    verdict, rule = _decide_bounded(ratios, window_start)
    fitted = float(ratios.max())
    return DecayVerdict(
        descriptor="log_growth",
        verdict=verdict,
        fitted_constant=fitted,
        per_index_ratios=ratios,
        window_start=window_start,
        rule=rule,
    )


# ---------------------------------------------------------------------------
# direct smoothness measurement on boundary functions


def _difference_seminorm(f: BoundaryFunction, alpha: float) -> float:
    # n-th order grid-aligned differences, n = floor(alpha) + 1
    n = int(math.floor(alpha)) + 1
    M = f.grid.size
    best = 0.0
    for ell in range(1, f.grid.m - 1):
        k = M >> ell
        h = 2.0 * math.pi * k / M
        d = f.samples
        for _ in range(n):
            d = np.roll(d, -k) - d
        best = max(best, float(np.max(np.abs(d))) / h ** alpha)
    return best


def _spectral_derivative_sup(f: BoundaryFunction, k: int) -> float:
    mult = (1j * f.grid.modes) ** k
    g = BoundaryFunction.from_spectrum(f.grid, f.spectrum * mult)
    return lp_norm(g, math.inf)


def _gevrey_constant(f: BoundaryFunction, alpha: float, k_max: int = 20) -> float:
    # smallest Q consistent with sup |f^(k)| <= Q**(k+1) (k!)**(1 + 1/alpha),
    # estimated in log space to dodge overflow; derivative order capped
    best = math.inf
    for k in range(k_max + 1):
        sup = _spectral_derivative_sup(f, k)
        if sup == 0.0:
            return 0.0
        log_q = (math.log(sup) - (1.0 + 1.0 / alpha) * math.lgamma(k + 1)) / (k + 1)
        best = min(best, math.exp(log_q))
    return best


def _sobolev_norm(f: BoundaryFunction, p: float, s: float) -> float:
    modes = f.grid.modes
    mult = np.zeros(f.grid.size, dtype=complex)
    nz = modes != 0
    # principal branch of (i n)**s; modulus |n|**s
    mult[nz] = np.exp(
        s * (np.log(np.abs(modes[nz])) + 1j * (math.pi / 2.0) * np.sign(modes[nz]))
    )
    g = BoundaryFunction.from_spectrum(f.grid, f.spectrum * mult)
    return lp_norm(g, p)


def measure_smoothness(f: BoundaryFunction, x: SmoothnessDescriptor) -> float:
    """Direct estimate of the class-x size of a boundary function.

    lipschitz: sup over dyadic steps of the scaled n-th difference norm;
    bmo: the dyadic-arc oscillation norm; gevrey: the fitted constant of
    the derivative-growth bound (derivative order capped at 20);
    sobolev: L^p norm after the fractional spectral multiplier.
    """
    if x.kind == "lipschitz":
        return _difference_seminorm(f, x.alpha)
    if x.kind == "bmo":
        return bmo_norm(f)
    if x.kind == "gevrey":
        return _gevrey_constant(f, x.alpha)
    return _sobolev_norm(f, x.p, x.s)


def projection_decay_report(
    product: BlaschkeProduct, f: BoundaryFunction, x: SmoothnessDescriptor
) -> DiagnosticsReport:
    """Pair the two sides of the trace-decay correspondence at desk scale.

    One side measures the class-x size of the co-analytic part of
    conj(B) f (mirrored to an analytic representative); the other lists
    the per-class decay ratios of the trace of f along the zeros.  For a
    finite product both numbers are finite; trend studies over nested
    truncations compare their growth.
    """
    _require_h2(f, "projection_decay_report input")
    theta = product.sample(f.grid)
    coanalytic = riesz_project(theta.conj() * f, "-")
    # conj moves mode n to -n and keeps every modulus
    smooth = measure_smoothness(coanalytic.conj(), x)

    zeros = product.zeros
    values = trace(f, zeros)
    order, gaps = _boundary_order(zeros)
    ratios = _class_ratios(gaps, values.values[order], x)
    notes = []
    if x.kind == "gevrey":
        notes.append("gevrey constant estimated with derivative order capped at 20")
    finite = ratios[np.isfinite(ratios)]
    return DiagnosticsReport(
        name="projection_decay",
        scalars={
            "smoothness": smooth,
            "trace_ratio_max": float(finite.max()) if finite.size else math.inf,
        },
        series={"trace_ratios": ratios.tolist()},
        notes=notes,
    )
