"""Numerical evidence for the Chebyshev-estimate hypotheses and conclusion.

Three families of diagnostics over a counting table with declared density a:

* the L1 integral of |N(x) - ax| / x^2 (exact piecewise),
* the strictly stronger tail-sup variant with S(x) = sup_{t in [x, B]}
  |N(t) - at| / t (exact piecewise; the sup is truncated at the enumeration
  bound, which under-estimates it, so divergence verdicts are reliable and
  convergence verdicts carry a tail caveat),
* the little-o trend of D(x) = log(x) |N(x) - ax| / x and the psi(x)/x window
  extrema.

Verdicts are labeled evidence: no finite enumeration proves convergence or a
limit at infinity.  All integrand pieces are closed forms; N is constant
between jumps and |c - ax| changes sign at most once per piece (at x = c/a),
so each piece splits into at most two signed parts with antiderivative
-c/x - a log x.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .counting import CountingTable, _below

CONVERGENT = "convergent-evidence"
DIVERGENT = "divergent-evidence"
INCONCLUSIVE = "inconclusive"
CONSISTENT = "consistent-with-little-o"
VIOLATED = "violated"

# Verdict thresholds: an integral whose last decade adds under CONVERGENT_FRAC
# of its total is convergent evidence; window suprema whose last one is at most
# DECAY_RATIO times the largest of the first half are decaying.
CONVERGENT_FRAC = 0.01
DECAY_RATIO = 0.5
CHECKPOINTS = 48      # default checkpoints, geometric from 2 to the bound
TREND_SAMPLES = 400   # little_o_trend's reported sample grid
BLOCK = 65536         # pieces per pass of _integral_report's whole-piece sums


@dataclass(frozen=True)
class IntegralReport:
    """Checkpointed partials of a non-negative hypothesis integral."""

    checkpoints: tuple  # ((X, partial), ...) sorted by X
    tail_estimate: float
    verdict: str
    exact: bool
    caveats: tuple

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class TrendReport:
    """Sampled D(x) = log(x)|N(x) - ax|/x with dyadic window suprema."""

    sample_x: np.ndarray
    sample_d: np.ndarray
    window_sups: tuple  # ((lo, hi, sup), ...) ascending in x
    verdict: str

    def to_dict(self):
        return {
            "samples": [[float(x), float(d)] for x, d in zip(self.sample_x, self.sample_d)],
            "window_sups": [[lo, hi, s] for lo, hi, s in self.window_sups],
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ChebyshevReport:
    """Extrema of psi(x)/x over a window, evaluated at the psi jumps."""

    window: tuple
    ratio_min: float
    ratio_max: float
    grid_size: int

    def to_dict(self):
        return {**asdict(self),
                "verdict": f"ratio_min={self.ratio_min:.12g},ratio_max={self.ratio_max:.12g}"}


@dataclass(frozen=True)
class OmegaReport:
    """Quadrature partials of integral omega(x)/x dx plus decay of omega log x."""

    checkpoints: tuple
    verdict: str
    logweight_sups: tuple
    decaying: bool
    contradiction: bool

    def to_dict(self):
        return asdict(self)


def _pieces(table: CountingTable):
    """The declared density a, the pieces (ulo, uhi, xlo, xhi, c) and h.

    On [xlo_i, xhi_i) = [x_i, x_{i+1}), logs ulo_i and uhi_i, x_N = B, the
    count is c_i = i + 1.  h[j] is the larger one-sided limit of |N(t)/t - a|
    at jump x_j (x_0 = 1 is the unit), and h[N] the left limit at B; |c/t - a|
    is V-shaped on a piece, so its extrema over any run of pieces sit in h.
    """
    if table.a is None:
        raise ValueError("this check requires a declared density a")
    if not 0.0 < table.a < math.inf:
        raise ValueError("density a must be positive and finite")
    a = float(table.a)
    u = np.concatenate((table.jump_logs, [table.log_bound]))
    x = np.exp(u)
    n = np.arange(table.total_count + 1, dtype=float)  # N just left of each x_j
    h = abs(n / x - a)  # abs(), not np.abs: numpy reuses the temporary in place
    np.maximum(h[:-1], abs(n[1:] / x[:-1] - a), out=h[:-1])
    return a, (u[:-1], u[1:], x[:-1], x[1:], n[1:]), h


def _rising(vals) -> bool:
    """The last three values do not decrease (up to 1e-12 relative)."""
    return (len(vals) >= 3 and vals[-1] >= vals[-2] * (1 - 1e-12)
            and vals[-2] >= vals[-3] * (1 - 1e-12))


def _decaying(vals) -> bool:
    """The last value is at most DECAY_RATIO times the largest of the first half."""
    return vals[-1] <= DECAY_RATIO * max(vals[: max(1, len(vals) // 2)])


def _evidence(partial, bound, checkpoints):
    """(checkpoint partials, decade verdict, tail estimate): the verdict weighs
    a flat last decade against non-decreasing per-decade increments."""
    if checkpoints is None:
        checkpoints = np.geomspace(min(2.0, bound), bound, CHECKPOINTS)
    pts = tuple((float(x), partial(x)) for x in np.sort(np.asarray(checkpoints, dtype=float)))
    xs = [1.0] + [x for x in (bound / 1e3, bound / 1e2, bound / 10.0, bound) if x > 1.0]
    ps = [partial(x) for x in xs]
    incr = [q - p for p, q in zip(ps, ps[1:])]
    if _rising(incr) and incr[-1] > 0:
        verdict = DIVERGENT
    elif ps[-1] == 0.0 or (incr and incr[-1] < CONVERGENT_FRAC * ps[-1]):
        verdict = CONVERGENT
    else:
        verdict = INCONCLUSIVE
    return pts, verdict, incr[-1] if incr else 0.0


def _integral_report(table: CountingTable, piece, xhi, uhi, checkpoints, caveat) -> IntegralReport:
    """Exact partials of integral_1^X f dx, where ``piece(k, x, log x)`` integrates
    f from jump k to x inside piece k.  Whole pieces (k a slice, x and log x its
    right ends) are summed BLOCK at a time, each block carrying the running sum
    into its first term: one sequential pass, with BLOCK-long temporaries."""
    cum = np.zeros(len(xhi) + 1)
    for lo in range(0, len(xhi), BLOCK):
        k = slice(lo, lo + BLOCK)
        part = piece(k, xhi[k], uhi[k])
        part[0] += cum[lo]
        np.cumsum(part, out=cum[lo + 1 : lo + 1 + BLOCK])

    def partial(x):
        x = float(x)
        if x <= 1.0:
            return 0.0
        if x >= table.bound:
            return float(cum[-1])
        ux = math.log(x)
        k = int(np.searchsorted(table.jump_logs, ux, side="right")) - 1
        return float(cum[k] + piece(k, x, ux))

    pts, verdict, tail = _evidence(partial, table.bound, checkpoints)
    return IntegralReport(pts, max(tail, 0.0), verdict, exact=True, caveats=(caveat,))


def l1_condition(table: CountingTable, checkpoints=None) -> IntegralReport:
    """Exact piecewise partials of the L1 integral integral_1^X |N-ax|/x^2 dx."""
    a, (ulo, uhi, xlo, xhi, c), _ = _pieces(table)

    def piece(k, x, ux):
        m = np.clip(c[k] / a, xlo[k], x)
        lnm = np.log(m)
        pos = (c[k] / xlo[k] + a * ulo[k]) - (c[k] / m + a * lnm)
        neg = (a * ux + c[k] / x) - (a * lnm + c[k] / m)
        return np.maximum(pos, 0.0) + np.maximum(neg, 0.0)

    return _integral_report(table, piece, xhi, uhi, checkpoints,
                            "integral truncated at the enumeration bound")


def tail_sup(table: CountingTable, xs) -> np.ndarray:
    """S(x) = sup_{t in [x, B]} |N(t) - at| / t on query points (truncated sup).

    Zhang's R[j] = max(h[j:]) is the sup from the left limit at jump x_j up to
    B, one suffix max over h in place.  With n = N(x) under the strict
    convention x lies in (x_{n-1}, x_n], so S(x) = max(|n/x - a|, R[n]): a
    point on a jump keeps the jump's right limit.
    """
    a, _, r = _pieces(table)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 1.0) or np.any(xs > table.bound):
        raise ValueError("query points must lie in [1, bound]")
    np.maximum.accumulate(r[::-1], out=r[::-1])
    n = table.count_n(xs)
    return np.maximum(np.abs(n / xs - a), r[n])


def zhang_condition(table: CountingTable, checkpoints=None) -> IntegralReport:
    """Exact piecewise partials of integral_1^X S(x)/x dx (truncated tail sup);
    on piece i, S(x) = max(|c_i/x - a|, R[i + 1]) with R as in ``tail_sup``."""
    a, (ulo, uhi, xlo, xhi, c), h = _pieces(table)
    r = np.maximum.accumulate(h[::-1], out=h[::-1])[::-1][1:]

    def piece(k, x, ux):
        # On [xlo, t) the left branch c/x - a exceeds R; beyond it S = R.
        t = np.clip(c[k] / (a + r[k]), xlo[k], x)
        lnt = np.log(t)
        left = (c[k] / xlo[k] + a * ulo[k]) - (c[k] / t + a * lnt)
        return np.maximum(left, 0.0) + np.maximum(r[k] * (ux - lnt), 0.0)

    return _integral_report(table, piece, xhi, uhi, checkpoints,
                            "sup over t >= x truncated to t <= bound; S is under-estimated, "
                            "so convergence verdicts are tail-caveated")


def _dyadic_edges(bound: float):
    """Window edges B, B/2, B/4, ... down to 1 (at most 65 edges), returned ascending."""
    edges = [bound]
    while edges[-1] / 2.0 > 1.0 and len(edges) < 64:
        edges.append(edges[-1] / 2.0)
    edges.append(max(1.0, edges[-1] / 2.0))
    return edges[::-1]


def _window_sups(edges, xs, vals):
    """Max of vals over lo < xs <= hi for each pair of consecutive edges (0.0 if
    none); ``xs`` is sorted, so one searchsorted cuts every window."""
    cuts = np.searchsorted(xs, edges, side="right")
    return [float(np.max(vals[i:j])) if j > i else 0.0 for i, j in zip(cuts, cuts[1:])]


def little_o_trend(table: CountingTable) -> TrendReport:
    """Trend of D(x) = log(x)|N(x) - ax|/x against the o(x/log x) hypothesis.

    The extrema of |N - ax| on a piece sit at its endpoints, so each window
    (lo, hi]'s sup is the larger of log(x) h at the jumps x in it (both
    one-sided limits) and D at hi itself; no grid density tuning affects
    them, and the geometric grid is only the reported sample series.  Both
    limits of a jump on an edge count in the window below it.
    """
    a, (_, uhi, _, xhi, _), h = _pieces(table)

    def d(x):
        return np.log(x) * np.abs(table.count_n(x) - a * x) / x

    edges = _dyadic_edges(table.bound)
    h[1:] *= uhi
    sups = list(map(max, _window_sups(edges, xhi, h[1:]), d(np.array(edges[1:])).tolist()))
    if len(sups) < 4:
        verdict = INCONCLUSIVE
    elif _rising(sups):
        verdict = VIOLATED
    elif _decaying(sups):
        verdict = CONSISTENT
    else:
        verdict = INCONCLUSIVE
    grid = np.geomspace(1.0, table.bound, TREND_SAMPLES)
    return TrendReport(grid, d(grid), tuple(zip(edges, edges[1:], sups)), verdict)


def omega_lemma_check(omega, x_max: float, checkpoints=None) -> OmegaReport:
    """Trapezoid partials of integral_1^{x_max} omega(x)/x dx plus the decay
    profile of omega(x) log x over dyadic tail windows.

    ``omega`` is a vectorized callable; samples must be non-increasing and
    non-negative.  The grid is refined (doubled, in log x, at most 12 times)
    until successive integral estimates agree to 1e-6 relative.  A convergent
    integral with a non-decaying omega(x) log x profile is flagged as a
    contradiction indicator; it should never fire on valid inputs.
    """
    if x_max <= 1.0:
        raise ValueError("x_max must exceed 1")
    u_max = math.log(x_max)
    n = 1025
    prev = None
    for _ in range(12):
        us = np.linspace(0.0, u_max, n)
        w = np.asarray(omega(np.exp(us)), dtype=float)
        slack = 1e-12 * (1.0 + float(np.max(np.abs(w))))
        if np.any(w < -slack):
            raise ValueError("omega must be non-negative")
        if np.any(np.diff(w) > slack):
            raise ValueError("omega samples must be non-increasing")
        du = us[1] - us[0]
        cum = np.concatenate(([0.0], np.cumsum((w[1:] + w[:-1]) * 0.5 * du)))
        total = float(cum[-1])
        if prev is not None and abs(total - prev) <= 1e-6 * max(abs(total), 1e-12):
            break
        prev = total
        n = 2 * (n - 1) + 1

    def partial(x):
        x = float(x)
        if x <= 1.0:
            return 0.0
        return float(np.interp(min(math.log(x), u_max), us, cum))

    pts, verdict, _ = _evidence(partial, x_max, checkpoints)
    edges = _dyadic_edges(x_max)
    sups = _window_sups(edges, np.exp(us), w * us)
    decaying = _decaying(sups)
    contradiction = verdict == CONVERGENT and not decaying
    return OmegaReport(pts, verdict, tuple(zip(edges, edges[1:], sups)), decaying, contradiction)


def chebyshev_verdict(table: CountingTable, x_lo: float, x_hi: float) -> ChebyshevReport:
    """Min and max of psi(x)/x over [x_lo, x_hi].

    psi(x)/x decreases strictly between psi jumps, so the extrema sit at the
    one-sided limits at each jump abscissa plus the window endpoints; all of
    those are evaluated, making the result grid free.  The jumps are those
    in [x_lo, x_hi) under the strict convention: the right limit of a jump on
    x_hi lies outside the window, and its left limit is the endpoint value.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if x_lo > x_hi:
        raise ValueError("empty window")
    if not (1.0 < x_lo and x_hi <= table.bound):
        raise ValueError(f"window must lie in (1, bound={table.bound}]")
    i, j = _below(table.psi_logs, np.log([x_lo, x_hi]))
    xj = np.exp(table.psi_logs[i:j])
    pref = table.cum_lambda[i + 1 : j + 1]  # psi just after each jump
    after = pref / xj                       # limit from the right of each jump
    before = (pref - table.lambdas[i:j]) / xj  # limit from the left
    ends = table.cum_lambda[[i, j]] / np.array([x_lo, x_hi])
    ratio_max = float(np.max(np.concatenate((after, ends))))
    ratio_min = float(np.min(np.concatenate((before, ends))))
    return ChebyshevReport((x_lo, x_hi), ratio_min, ratio_max, int(j - i) * 2 + 2)
