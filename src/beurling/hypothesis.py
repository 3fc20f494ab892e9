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
-c/x - a log x.  The checks on N read the table's jumps ``counting.BLOCK``
at a time (:func:`_blocks`), so each holds O(BLOCK) floats plus its query
points beside the table, and no value depends on BLOCK.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import counting
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


def _density(table: CountingTable) -> float:
    """The table's declared density a, which every check on N needs > 0 (the table holds it finite)."""
    if not table.a:
        raise ValueError("this check requires a declared density a > 0")
    return float(table.a)


def _blocks(table: CountingTable, a: float):
    """The checks' one pass over N's jumps, ``counting.BLOCK`` pieces at a time.

    Piece k is [x_k, x_{k+1}), with x_0 = 1 the unit and x_N = B, and N = k + 1
    on it.  For the pieces lo..hi-1 this yields (lo, u, x, n, h) at the jumps
    x_lo..x_hi: their logs u, x = e^u, the count n just left of each, and h,
    the larger one-sided limit of |N(t)/t - a| at each (at B the left limit
    alone).  |c/t - a| is V-shaped on a piece, so its extrema over any run of
    pieces sit in h.  Every entry is computed elementwise, so no value depends
    on BLOCK, and a pass holds O(BLOCK) floats beside the table.
    """
    logs, total = table.jump_logs, table.total_count
    for lo in range(0, total, counting.BLOCK):
        hi = min(lo + counting.BLOCK, total)
        u = logs[lo : hi + 1] if hi < total else np.append(logs[lo:], table.log_bound)
        x = np.exp(u)
        n = np.arange(lo, hi + 1, dtype=float)
        h = np.maximum(abs(n / x - a), abs((n + 1.0) / x - a))  # abs(): numpy reuses the temporary
        if hi == total:
            h[-1] = abs(n[-1] / x[-1] - a)
        yield lo, u, x, n, h


def _suffix_blocks(table: CountingTable, a: float):
    """:func:`_blocks` with h replaced by Zhang's R, R[j] = max(h[j:]) over the
    jumps x_j..x_N: a first pass takes each block's max of h, and each block's
    own suffix max then meets the max over the blocks after it."""
    later = np.maximum.accumulate([float(np.max(h)) for *_, h in _blocks(table, a)][::-1])[::-1]
    for (lo, u, x, n, h), rest in zip(_blocks(table, a), np.append(later[1:], 0.0)):
        r = np.maximum.accumulate(h[::-1])[::-1]
        yield lo, u, x, n, np.maximum(r, rest, out=r)


def _rising(vals) -> bool:
    """The last three values do not decrease (up to 1e-12 relative)."""
    return (len(vals) >= 3 and vals[-1] >= vals[-2] * (1 - 1e-12)
            and vals[-2] >= vals[-3] * (1 - 1e-12))


def _integral_report(table: CountingTable, blocks, piece, checkpoints, caveat) -> IntegralReport:
    """Exact partials of integral_1^X f dx, where ``piece(*ends, x, log x)``
    integrates f over piece k from x_k to x, ``ends`` its per-piece arrays.

    ``blocks`` yields (lo, ends, xhi, uhi) for each block of pieces from lo on,
    xhi and uhi at their right ends.  The whole pieces are summed in one
    sequential pass, each block carrying the running sum into its first term.
    The partials are read at the checkpoints, sorted (by default CHECKPOINTS
    geometric ones from 2 to the bound), and at the decade points; the verdict
    weighs a flat last decade against non-decreasing per-decade increments.
    The pieces that hold a query point are found before the pass, which keeps
    only the sum before each of them and its ends.
    """
    bound, logs = table.bound, table.jump_logs
    if checkpoints is None:
        checkpoints = np.geomspace(min(2.0, bound), bound, CHECKPOINTS)
    checkpoints = np.sort(np.asarray(checkpoints, dtype=float)).tolist()
    decades = [1.0] + [x for x in (bound / 1e3, bound / 1e2, bound / 10.0, bound) if x > 1.0]
    wanted = np.array([np.searchsorted(logs, math.log(x), side="right") - 1
                       for x in checkpoints + decades if 1.0 < x < bound], dtype=np.intp)
    before, ends_at, total = {}, {}, 0.0
    for lo, ends, xhi, uhi in blocks:
        part = piece(*ends, xhi, uhi)
        carried = total
        part[0] += carried
        np.cumsum(part, out=part)
        for k in wanted[(wanted >= lo) & (wanted < lo + part.size)].tolist():
            before[k] = part[k - lo - 1] if k > lo else carried
            ends_at[k] = tuple(e[k - lo] for e in ends)
        total = part[-1]

    def partial(x):
        x = float(x)
        if x <= 1.0:
            return 0.0
        if x >= bound:
            return float(total)
        ux = math.log(x)
        k = int(np.searchsorted(logs, ux, side="right")) - 1
        return float(before[k] + piece(*ends_at[k], x, ux))

    ps = [partial(x) for x in decades]
    incr = [q - p for p, q in zip(ps, ps[1:])]
    if _rising(incr) and incr[-1] > 0:
        verdict = DIVERGENT
    elif ps[-1] == 0.0 or (incr and incr[-1] < CONVERGENT_FRAC * ps[-1]):
        verdict = CONVERGENT
    else:
        verdict = INCONCLUSIVE
    tail = max(incr[-1], 0.0) if incr else 0.0
    return IntegralReport(tuple((x, partial(x)) for x in checkpoints), tail, verdict, exact=True,
                          caveats=(caveat,))


def l1_condition(table: CountingTable, checkpoints=None) -> IntegralReport:
    """Exact piecewise partials of the L1 integral integral_1^X |N-ax|/x^2 dx."""
    a = _density(table)

    def piece(ulo, xlo, c, x, ux):
        m = np.clip(c / a, xlo, x)
        lnm = np.log(m)
        pos = (c / xlo + a * ulo) - (c / m + a * lnm)
        neg = (a * ux + c / x) - (a * lnm + c / m)
        return np.maximum(pos, 0.0) + np.maximum(neg, 0.0)

    blocks = ((lo, (u[:-1], x[:-1], n[1:]), x[1:], u[1:]) for lo, u, x, n, _ in _blocks(table, a))
    return _integral_report(table, blocks, piece, checkpoints,
                            "integral truncated at the enumeration bound")


def tail_sup(table: CountingTable, xs) -> np.ndarray:
    """S(x) = sup_{t in [x, B]} |N(t) - at| / t on query points (truncated sup).

    Zhang's R[j] = max(h[j:]) is the sup from the left limit at jump x_j up to
    B (:func:`_suffix_blocks`).  With n = N(x) under the strict convention x
    lies in (x_{n-1}, x_n], so S(x) = max(|n/x - a|, R[n]): a point on a jump
    keeps the jump's right limit.
    """
    a = _density(table)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 1.0) or np.any(xs > table.bound):
        raise ValueError("query points must lie in [1, bound]")
    n = np.asarray(table.count_n(xs))
    r = np.empty(xs.shape)  # R[n] at each point
    for lo, *_, rb in _suffix_blocks(table, a):
        here = (n >= lo) & (n < lo + rb.size)
        r[here] = rb[n[here] - lo]
    return np.maximum(np.abs(n / xs - a), r)


def zhang_condition(table: CountingTable, checkpoints=None) -> IntegralReport:
    """Exact piecewise partials of integral_1^X S(x)/x dx (truncated tail sup);
    on piece k, S(x) = max(|c_k/x - a|, R[k + 1]) with R as in ``tail_sup``."""
    a = _density(table)

    def piece(ulo, xlo, c, r, x, ux):
        # On [xlo, t) the left branch c/x - a exceeds R; beyond it S = R.
        t = np.clip(c / (a + r), xlo, x)
        lnt = np.log(t)
        left = (c / xlo + a * ulo) - (c / t + a * lnt)
        return np.maximum(left, 0.0) + np.maximum(r * (ux - lnt), 0.0)

    blocks = ((lo, (u[:-1], x[:-1], n[1:], r[1:]), x[1:], u[1:])
              for lo, u, x, n, r in _suffix_blocks(table, a))
    return _integral_report(table, blocks, piece, checkpoints,
                            "sup over t >= x truncated to t <= bound; S is under-estimated, "
                            "so convergence verdicts are tail-caveated")


def _dyadic_edges(bound: float):
    """Window edges B, B/2, B/4, ... down to 1 (at most 65 edges), returned ascending."""
    edges = [bound]
    while edges[-1] / 2.0 > 1.0 and len(edges) < 64:
        edges.append(edges[-1] / 2.0)
    edges.append(max(1.0, edges[-1] / 2.0))
    return edges[::-1]


def little_o_trend(table: CountingTable) -> TrendReport:
    """Trend of D(x) = log(x)|N(x) - ax|/x against the o(x/log x) hypothesis.

    For x >= e, D falls on a piece where N > ax and rises where N < ax, so
    each window (lo, hi] has its sup in log(x) h at the jumps x inside it
    (both one-sided limits), D at hi itself and the right limit D(lo+); no
    grid density affects them, and the geometric grid is only the reported
    sample series.  Under the strict convention a jump on an edge gives its
    left limit to the window below and its right limit to the window above.
    Below e, on a piece where N = c > ax, D' = 0 where c(1 - y) = a e^y,
    y = log x; the left side less the right falls in y, so D peaks once, at
    that root, and D there is one more candidate when it lies inside the piece.
    """
    a = _density(table)

    def d(x):
        return np.log(x) * np.abs(table.count_n(x) - a * x) / x

    edges = _dyadic_edges(table.bound)
    # Over the jumps x_1..x_N (x_N = B, with its left limit): first[i] of them lie
    # below edge i and past[i] at or below it, so first < past puts jumps on the
    # edge, the first of them with log u_edge[i], and N is past[i] + 1 just right
    # of the edge; inside[i] is the largest log(x) h strictly inside window i.
    # Membership goes by value, so each block's own searchsorted finds its share.
    first, past = np.zeros(len(edges), dtype=np.intp), np.zeros(len(edges), dtype=np.intp)
    u_edge, inside = np.full(len(edges), math.nan), np.zeros(len(edges) - 1)
    for _, u, x, n, h in _blocks(table, a):
        uhi, xhi, vals = u[1:], x[1:], h[1:] * u[1:]
        below, upto = (np.searchsorted(xhi, edges, side) for side in ("left", "right"))
        for i in np.flatnonzero(below[1:] > upto[:-1]).tolist():
            inside[i] = max(inside[i], np.max(vals[upto[i] : below[i + 1]]))
        m = int(np.searchsorted(u[:-1], 1.0))  # the pieces [x_k, x_{k+1}) with x_k < e, N = n[k + 1]
        if m:  # D's peaks inside them, where c(1 - y) - a e^y falls through 0
            c, y0, y1 = n[1 : m + 1], u[:m], u[1 : m + 1]
            peak = (c * (1.0 - y0) > a * x[:m]) & (c * (1.0 - y1) < a * x[1 : m + 1])
            c, y0, y1 = c[peak], y0[peak], y1[peak]
            y = np.minimum(y1, 1.0)
            for _ in range(8):  # Newton from the root's right (the side is concave): 5 steps reach the rounding
                e_y = np.exp(y)
                y += (c * (1.0 - y) - a * e_y) / (c + a * e_y)
            i = np.searchsorted(edges, np.exp(y)) - 1  # window (edges[i], edges[i + 1]]
            keep = (y0 < y) & (y < y1) & (i >= 0)
            np.maximum.at(inside, i[keep], (y * (c * np.exp(-y) - a))[keep])
        new = (below < upto) & np.isnan(u_edge)
        u_edge[new] = uhi[below[new]]
        first += below
        past += upto
    on_edge = first < past
    u_on = np.where(on_edge, u_edge, np.log(edges))
    left, right = (u_on * abs((n + 1.0) / edges - a) for n in (first, past))
    left[~on_edge] = 0.0  # the left limit only of a jump on the edge
    sups = list(map(max, inside.tolist(), d(np.array(edges[1:])).tolist(),
                    left[1:].tolist(), right[:-1].tolist()))
    if len(sups) < 4:
        verdict = INCONCLUSIVE
    elif _rising(sups):
        verdict = VIOLATED
    elif sups[-1] <= DECAY_RATIO * max(sups[: len(sups) // 2]):
        verdict = CONSISTENT
    else:
        verdict = INCONCLUSIVE
    grid = np.geomspace(1.0, table.bound, TREND_SAMPLES)
    return TrendReport(grid, d(grid), tuple(zip(edges, edges[1:], sups)), verdict)


def window_ok(x_lo: float, x_hi: float, bound: float) -> bool:
    """The Chebyshev window rule: 1 < x_lo <= x_hi <= bound."""
    return 1.0 < x_lo <= x_hi <= bound


def chebyshev_verdict(table: CountingTable, x_lo: float, x_hi: float) -> ChebyshevReport:
    """Min and max of psi(x)/x over [x_lo, x_hi].

    psi(x)/x decreases strictly between psi jumps, so the extrema sit at the
    one-sided limits at each jump abscissa plus the window endpoints; all of
    those are evaluated, making the result grid free.  The jumps are those
    in [x_lo, x_hi) under the strict convention: the right limit of a jump on
    x_hi lies outside the window, and its left limit is the endpoint value.
    They are read ``counting.BLOCK`` at a time, and max and min are exact, so
    a call holds O(BLOCK) floats and no value depends on BLOCK.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not window_ok(x_lo, x_hi, table.bound):
        raise ValueError("empty window" if x_lo > x_hi else f"window must lie in (1, bound={table.bound}]")
    i, j = _below(table.psi_logs, np.log([x_lo, x_hi])).tolist()
    ends = table.cum_lambda[[i, j]] / np.array([x_lo, x_hi])
    ratio_max, ratio_min = float(np.max(ends)), float(np.min(ends))
    for lo in range(i, j, counting.BLOCK):
        hi = min(lo + counting.BLOCK, j)
        xj = np.exp(table.psi_logs[lo:hi])
        pref = table.cum_lambda[lo + 1 : hi + 1]  # psi just after each jump
        ratio_max = max(ratio_max, float(np.max(pref / xj)))  # limits from the right
        ratio_min = min(ratio_min, float(np.min((pref - table.lambdas[lo:hi]) / xj)))  # from the left
    return ChebyshevReport((x_lo, x_hi), ratio_min, ratio_max, (j - i) * 2 + 2)
