"""Zeta-side evaluations: Euler products, Mellin-Stieltjes sums, Laplace and
Fourier transforms of the step functions, and the regularized G(s).

Every method takes a point and returns a complex, or takes an array of points
and returns arrays of its shape.  N and psi are step functions, so every table
transform is one exact sum sum_k w_k n_k^{-s} over a jump list, which
``_moment_sum`` evaluates from Taylor moments, or term by term where the
moments would not pay.  The Euler side sums log zeta (w = 1/k) or
-zeta'/zeta (w = log p) over the prime powers p^k: through the same kernel
over its own list of every p^k with k log p below log p_max + POWER_REACH
(psi's list below B is ``semigroup._psi_jumps``), whose omitted powers are
below the rounding, and in closed form per prime for the primes near 1 and
at points of large |s|.  The only honest error is the truncation beyond the
enumeration bound B.  Tail models need a declared density a; without one the
tail model is ``none``, not a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import counting
from .counting import CountingTable
from .errors import DomainError
from .semigroup import _levels, _window
from .systems import PrimeSequence

TAYLOR_TERMS = 20  # series terms per run of jumps in _moment_sum
KERNEL_CELLS = 1 << 14  # points x runs (or x terms) evaluated at once
RUN_JUMPS = 1 << 14  # jumps per run at most: a longer floor(u r) run is cut every RUN_JUMPS jumps
DIRECT_RUNS = 0.25  # runs past this share of the terms are summed term by term
PRIME_RUNS = 1 / 32  # the Euler side's kernel cuts as many runs as this share of the primes
POWER_REACH = 37.0  # the Euler side's list keeps p^k up to k log p = log p_max + 37
MAX_POWERS = 128  # primes with more powers in reach are summed in closed form


@dataclass(frozen=True)
class ZetaResult:
    """A complex, or an array at an array of points, plus a heuristic bound on the omitted tail."""

    value: complex | np.ndarray
    truncation_bound: float | np.ndarray
    tail_model: str  # density | finite | none


def _require_halfplane(s, least: float, reach: float):
    """``s`` as a complex, or a complex array, every point finite with Re s > least
    and a finite phase |s| reach (``finite_grid``'s rule), so that no sum
    overflows to NaN or keeps a phase with no digits.  ``reach`` is log B of a
    table, or the largest log p^k that the Euler side sums."""
    s = np.asarray(s, dtype=complex)
    finite = np.isfinite(s)
    if not np.all(finite):
        raise DomainError(f"s must be finite, got {complex(s.flat[np.argmin(finite)])}")
    if np.any(s.real <= least):
        raise DomainError(f"Re s must exceed {least}, got {complex(s.flat[np.argmin(s.real)])}")
    with np.errstate(over="ignore"):  # |s| of finite parts may still overflow
        r = float(np.max(np.abs(s), initial=0.0))
    if not finite_grid(0.0, r, reach):
        raise DomainError(f"|s| log B must be finite, got |s| = {r:g} with log B = {reach:g}")
    return s if s.ndim else complex(s)


def _stieltjes_sum(table: CountingTable, u, w, total, s):
    """sum_k w_k n_k^{-s} - total B^{-s} at each point of ``s`` over one of the
    table's jump lists ``u`` = log n_k: N's (unit weights, ``w`` None) or
    psi's (its Lambdas).  With total = W(B) this is
    s * integral_1^B W(x) x^{-s-1} dx for the step function W with jumps w_k
    at the n_k.

    All points of a call share the runs 1/r wide, r = max(1, max |s|), so a
    grid pays for the moments over the N(B) jumps once.
    """
    s = np.asarray(s, dtype=complex)
    out = _moment_sum(u, w, s.ravel(), np.max(np.abs(s), initial=1.0)).reshape(s.shape)
    out -= total * np.exp(-s * table.log_bound)
    return out if out.ndim else complex(out)


def _run_starts(u, r, limit):
    """The index of the first jump of each run of ``u``, or None once the runs
    outnumber ``limit``; ``counting.BLOCK`` jumps at a time.  A run starts
    where floor(u r) changes, and again every RUN_JUMPS jumps after such a
    start, so no run holds more than RUN_JUMPS jumps, whatever the block."""
    starts, count, last, anchor = [], 0, math.nan, 0
    for lo in range(0, u.size, counting.BLOCK):
        cell = u[lo : lo + counting.BLOCK] * r
        np.floor(cell, out=cell)
        first = np.empty(cell.size, dtype=bool)
        first[0] = cell[0] != last
        np.not_equal(cell[1:], cell[:-1], out=first[1:])
        heads = np.append(anchor, np.flatnonzero(first) + lo)  # the floor(u r) runs here, from their first jumps
        tails = np.append(heads[1:], lo + cell.size)
        long = tails - heads > RUN_JUMPS
        cuts = [np.arange(a + RUN_JUMPS * max(1, -((a - lo) // RUN_JUMPS)), b, RUN_JUMPS)
                for a, b in zip(heads[long].tolist(), tails[long].tolist())]
        starts.append(np.sort(np.concatenate([heads[1:], *cuts])) if cuts else heads[1:])
        anchor = heads[-1]
        count += starts[-1].size
        if count > limit:
            return None
        last = cell[-1]
    return np.concatenate(starts) if starts else np.zeros(0, dtype=np.intp)


def _moment_sum(u, w, s, r):
    """sum_k w_k e^{-s u_k} at each point of the 1-d ``s``, the u cut into runs
    where floor(u r) is constant, r >= |s|, and at most RUN_JUMPS jumps long.

    A run whose first jump is c sums to e^{-sc} sum_j (-s)^j m_j, with the
    moments m_j = sum_run w_k (u_k - c)^j / j! shared by all points
    (Odlyzko-Schonhage).  As |s (u_k - c)| < 1, stopping at TAYLOR_TERMS = 20
    omits at most e/20! ~ 1.1e-18 of sum_k |w_k| e^{-sigma c}; a run of one
    jump is exact.  Each (points x runs) block is evaluated by Horner's rule
    in -s along its rows.  When the runs outnumber DIRECT_RUNS of the jumps,
    the moments would cost more than they save, and the jumps are summed
    term by term instead; :func:`_run_starts` stops as soon as they do, so it
    keeps no more starts than the moments would.  The moments are taken over
    slices of whole runs, at most ``counting.BLOCK`` jumps each (one run, if
    it is longer), and each moment sums its run as one ``np.add.reduceat``
    segment, so no value depends on BLOCK: a call holds
    O(max(BLOCK, RUN_JUMPS)) floats and the (points x runs) blocks of
    :func:`_termwise` beside its starts and moments.
    """
    starts = _run_starts(u, r, DIRECT_RUNS * u.size)
    if starts is None:
        def direct(x, cols):
            e = np.exp(x * u[cols])
            return e if w is None else np.multiply(e, w[cols], out=e)

        return _termwise(u, s, direct)
    ends = np.append(starts, u.size)
    moments = np.empty((TAYLOR_TERMS, starts.size))
    i = 0
    while i < starts.size:  # the runs i..j-1, jumps lo..hi-1: at most BLOCK jumps, or one run
        j = max(i + 1, int(np.searchsorted(ends, ends[i] + counting.BLOCK, side="right")) - 1)
        lo, hi = ends[i], ends[j]
        _run_moments(u[lo:hi], None if w is None else w[lo:hi], starts[i:j] - lo, moments[:, i:j])
        i = j
    return _horner(u[starts], moments, s)


def _run_moments(u, w, starts, out):
    """The moments m_j = sum_run w_k (u_k - c)^j / j!, j < TAYLOR_TERMS, of the
    runs of the jumps ``u`` (weights ``w``, None for 1) that start at ``starts``,
    whole runs only, into the columns of ``out``: each run one
    ``np.add.reduceat`` segment, and a few floats per jump of ``u`` held."""
    d = np.repeat(u[starts], np.diff(np.append(starts, u.size)))
    np.subtract(u, d, out=d)  # u_k - c over each run
    term = np.ones(u.size) if w is None else w.astype(float)
    for k in range(TAYLOR_TERMS):
        out[k] = np.add.reduceat(term, starts) / math.factorial(k)
        term *= d


def _horner(c, moments, s):
    """sum over the runs of e^{-s c} sum_j (-s)^j m_j, at each point of the 1-d
    ``s``, the runs' first jumps ``c`` and ``moments`` from :func:`_run_moments`:
    Horner's rule in -s along each (points x runs) block of :func:`_termwise`."""
    def horner(x, cols):
        acc = moments[-1, cols] * x
        for m in moments[-2:0:-1, cols]:
            acc += m
            acc *= x
        acc += moments[0, cols]
        return np.multiply(np.exp(x * c[cols]), acc, out=acc)

    return _termwise(c, s, horner)


def _termwise(u, s, terms):
    """sum over the columns of ``terms(x, cols)``, the terms at the points
    x = -s (a column) and at u[cols], at each point of the 1-d ``s``.

    The (points x u) matrix goes in blocks of at most KERNEL_CELLS cells, and a
    point's blocks and their order depend on u alone, so each point's sum does
    not depend on the others.
    """
    rows = max(1, KERNEL_CELLS // max(1, u.size))
    cols = max(1, KERNEL_CELLS // rows)
    out = np.zeros(s.size, dtype=complex)
    x = -s.reshape(-1, 1)
    for i in range(0, s.size, rows):
        for j in range(0, u.size, cols):
            out[i : i + rows] += np.sum(terms(x[i : i + rows], slice(j, j + cols)), axis=1)
    return out


def zeta_euler(primes: PrimeSequence, s, a: float | None = None) -> ZetaResult:
    """Truncated Euler product prod_{p<B} (1 - p^{-s})^{-1}, Re s > 1, as the
    exp of log zeta = sum_{p<B} -log(1 - p^{-s}) = sum_{p<B, k>=1} p^{-ks} / k.

    The tail model multiplies the missing factors out heuristically: their log
    is about sum_{p>=B} p^{-sigma} ~ a * E1((sigma-1) log B) for a system of
    density a (prime counting ~ a x / log x).
    """
    from scipy.special import exp1  # imported here: scipy costs most of the CLI's start-up

    return _euler_side(primes, s, a, log_zeta=True,
                       density_bound=lambda s, value: abs(value) * np.expm1(
                           a * exp1((s.real - 1.0) * math.log(primes.bound))))


def neg_logderiv(primes: PrimeSequence, s, a: float | None = None) -> ZetaResult:
    """-zeta'(s)/zeta(s) = sum_{p<B} log p / (p^s - 1) = sum_{p<B, k>=1} log p * p^{-ks}, Re s > 1."""
    # sum_{p>=B} log p p^{-sigma} ~ a * integral_B^inf x^{-sigma} dx
    return _euler_side(primes, s, a, log_zeta=False,
                       density_bound=lambda s, value: a * primes.bound ** (1.0 - s.real) / (s.real - 1.0))


def _euler_side(primes: PrimeSequence, s, a, log_zeta: bool, density_bound) -> ZetaResult:
    """log zeta (``log_zeta``, and then its exp) or -zeta'/zeta at a point (a
    complex) or at each point of an array (an array), with its tail model:
    finite (exhaustive list), none (no a), or density, bounded by
    ``density_bound(s, value)``.  A density off ``counting.check_density`` raises ValueError.

    With reach = log p_max + POWER_REACH, the kernel's runs are 1/r wide for
    r * reach = PRIME_RUNS times the number of primes, a width set by the
    primes alone.  The points with |s| < r take it, over this function's own
    list of the powers below reach, weights 1/k or log p: :func:`_cuts` cuts
    it into windows of whole runs and counts each run's powers, which size
    the windows' :func:`_run_moments` exactly, for one :func:`_horner` call;
    the primes near 1 (more than MAX_POWERS powers in reach) are summed in
    closed form.  Each run is one ``np.add.reduceat`` segment over the same
    jumps in the same order as in the whole list sorted at once, so the
    windows change no bit.  A prime's omitted powers, past log p +
    POWER_REACH, sum to less than e^{-37 sigma} < 1e-16 of its series of
    |w| p^{-k sigma} (1/k falls too): below the rounding.  The other points
    go prime by prime in closed form (:func:`_per_prime`).  Which way a point
    goes depends on |s| alone, so an array gives each point its own value.

    The kernel call makes two passes over the powers for the windows' edges,
    rebuilds each window's powers and takes 20 passes over it, and holds
    O(``counting.BLOCK``) floats a window beside the runs' moments; each of
    its points then costs Horner steps over at most PRIME_RUNS of the primes'
    count of runs.  r is about 48 at 10^6, 390 at 10^7.
    """
    counting.check_density(a)
    logs = primes.logs
    reach = float(logs[-1]) + POWER_REACH if logs.size else 1.0
    s = _require_halfplane(s, 1.0, reach)  # the phases of every p^{-ks} it sums
    flat = np.ravel(s)
    r = PRIME_RUNS * logs.size / reach
    on_list = np.abs(flat) < r
    value = np.empty(flat.shape, dtype=complex)
    value[~on_list] = _per_prime(logs, flat[~on_list], log_zeta)
    if np.any(on_list):
        near_one = np.searchsorted(logs, reach / MAX_POWERS)  # log p < reach / MAX_POWERS
        listed = logs[near_one:]
        cuts, runs = _cuts(listed, reach, r)
        size = int(np.sum(-(-runs // RUN_JUMPS)))  # each run, cut every RUN_JUMPS powers
        c, moments, n = np.empty(size), np.empty((TAYLOR_TERMS, size)), 0
        for w in range(cuts.shape[1] - 1):  # window w: level k's powers cuts[k - 1, w]..cuts[k - 1, w + 1] - 1
            pieces = [(k, lo, hi) for k, (lo, hi) in enumerate(cuts[:, w : w + 2].tolist(), 1) if lo < hi]
            u, j, k = _window(pieces, _rebuilt(listed, pieces))
            starts = _run_starts(u, r, math.inf)
            c[n : n + starts.size] = u[starts]
            _run_moments(u, 1.0 / k if log_zeta else listed[j], starts, moments[:, n : n + starts.size])
            n += starts.size
            del u, j, k  # before the next window is built
        value[on_list] = (_horner(c, moments, flat[on_list])
                          + _per_prime(logs[:near_one], flat[on_list], log_zeta))
    value = (np.exp(value) if log_zeta else value).reshape(np.shape(s))
    value = value if value.ndim else complex(value)
    model = "finite" if primes.exhaustive else "none" if a is None else "density"
    bound = density_bound(s, value) if model == "density" else 0.0 * abs(s)  # a zero bound at each point
    return ZetaResult(value, bound, model)


def _cuts(logs, reach, r):
    """``(cuts, runs)``: cuts[k - 1, w], level k's powers before window w, and
    runs[m], the powers in run m (floor(u r) = m), from two passes over the
    levels (``semigroup._levels``), ``counting.BLOCK`` primes at a time.  A
    window holds whole runs of at most ``BLOCK`` powers, or one longer run."""
    block = counting.BLOCK
    # below[m]: the powers in runs under m; floor(u r) <= floor(reach r) for u < reach
    levels, below = 0, np.zeros(int(reach * r) + 2, dtype=np.int64)
    for k, _, u in _levels(logs, reach, block):
        levels = max(levels, k)
        ids = _run_ids(u, r)
        below[ids[0] + 1 : ids[-1] + 2] += np.bincount(ids - ids[0])
    runs = below[1:].copy()
    np.cumsum(below, out=below)
    edges = [0]
    while edges[-1] < runs.size:
        e = edges[-1]
        edges.append(max(e + 1, int(np.searchsorted(below, below[e] + block, side="right")) - 1))
    cuts = np.zeros((levels, len(edges)), dtype=np.intp)
    for k, _, u in _levels(logs, reach, block):
        cuts[k - 1] += np.searchsorted(_run_ids(u, r), edges)
    return cuts, runs


def _run_ids(u, r):
    """floor(u r) as integers: the run of each u, as :func:`_run_starts` cuts them."""
    return np.floor(u * r).astype(np.intp)


def _rebuilt(logs, pieces):
    """The logs of the ``pieces`` (k, lo, hi) laid end to end, each by descending
    j, each summed by the k additions from 0 that made its level (``_levels``)."""
    step = np.concatenate([logs[:0]] + [logs[lo:hi][::-1] for _, lo, hi in pieces])
    u, done, e = np.zeros(step.size), 0, 0
    for k, lo, hi in pieces:  # the pieces of level k and above get their k - done more additions
        for _ in range(k - done):
            u[e:] += step[e:]
        done, e = k, e + hi - lo
    return u


def _per_prime(logs, s, log_zeta: bool):
    """sum_p -log(1 - p^{-s}) (``log_zeta``) or sum_p log p / (p^s - 1) over
    the primes of ``logs``, at each point of the 1-d ``s``, by :func:`_termwise`.

    With t = p^{-s}, for p >= 2 (so |t| < 1/2) the terms are log p t / (1 - t)
    and -1/2 log1p(|1 - t|^2 - 1) - i arg(1 - t), with
    |1 - t|^2 - 1 = t_re (t_re - 2) + t_im^2; for the primes below 2 they take
    1 - t = -expm1(-s log p).  So every term is good to a few ulps of its
    modulus, and the log's imaginary part needs no unwrapping.
    """
    below, above = np.split(logs, [np.searchsorted(logs, math.log(2.0))])

    def below_two(x, cols):
        x = x * below[cols]  # -s log p
        if log_zeta:
            return -np.log(-np.expm1(x))
        return below[cols] / np.expm1(np.negative(x, out=x))

    def from_two(x, cols):
        t = np.exp(x * above[cols])  # p^{-s}
        if not log_zeta:
            t /= 1.0 - t
            t *= above[cols]
            return t
        out = np.empty_like(t)
        q = 1.0 - t.real  # above 1/2
        np.divide(t.imag, q, out=q)
        np.arctan(q, out=out.imag)  # -arg(1 - t)
        q = t.real - 2.0
        q *= t.real
        q += np.square(t.imag)
        np.log1p(q, out=out.real)
        out.real *= -0.5
        return out

    return _termwise(below, s, below_two) + _termwise(above, s, from_two)


def _density_bound(table: CountingTable, s):
    """Tail bound (a + |E1(log B)|) B^{1-sigma} |s| / (sigma-1) of a density-completed sum."""
    sigma = s.real
    last_e1 = abs(table.total_count / table.bound - table.a)
    return (table.a + last_e1) * table.bound ** (1.0 - sigma) * abs(s) / (sigma - 1.0)


def zeta_dirichlet(table: CountingTable, s) -> ZetaResult:
    """Dirichlet sum over the enumerated integers, density-completed beyond B."""
    s = _require_halfplane(s, 1.0, table.log_bound)
    if table.a is None:
        bound, model, tail = 0.0 * abs(s), "none", 0.0  # a zero bound at each point
    else:  # N ~ a x beyond B adds a B^{1-s}/(s-1) = (a B/(s-1)) B^{-s}
        bound, model, tail = _density_bound(table, s), "density", table.a * table.bound / (s - 1.0)
    return ZetaResult(_stieltjes_sum(table, table.jump_logs, None, -tail, s), bound, model)


def zeta_stieltjes(table: CountingTable, s) -> ZetaResult:
    """s * integral_1^B N(x) x^{-s-1} dx, exact piecewise, plus the density tail.

    Piecewise the integral telescopes to sum n_k^{-s} - N(B) B^{-s}; the tail
    s * a * B^{1-s}/(s-1) completes it assuming N ~ a x beyond B.  Without a
    density the finite part is returned with a linear-growth heuristic bound.
    """
    s = _require_halfplane(s, 1.0, table.log_bound)
    sigma = s.real
    b = table.bound
    n = table.total_count
    if table.a is not None:
        tail = s * table.a * b / (s - 1.0)
        bound, model = _density_bound(table, s), "density"
    else:
        tail = 0.0
        bound = abs(s) * n * b ** (-sigma) * (1.0 + 1.0 / (sigma - 1.0))
        model = "none"
    return ZetaResult(_stieltjes_sum(table, table.jump_logs, None, n - tail, s), bound, model)


def laplace_psi(table: CountingTable, s):
    """integral_0^{log B} psi(e^u) e^{-su} du, exact piecewise, Re s > 0, at a
    point (a complex) or at each point of an array (an array).

    No tail is added; for identity comparisons against -zeta'/(s zeta) the
    caller should allow psi(B) * B^{-sigma} / sigma for the omitted range.
    """
    s = _require_halfplane(s, 0.0, table.log_bound)
    return _stieltjes_sum(table, table.psi_logs, table.lambdas, float(table.cum_lambda[-1]), s) / s


@dataclass(frozen=True)
class IdentityReport:
    """The Laplace identity integral psi(e^u) e^{-su} du = -zeta'(s)/(s zeta(s))
    checked on an s-grid, each point against its truncation allowance."""

    rows: tuple  # ((sigma, t, laplace, rhs, abs_diff, allowance), ...)
    verdict: str  # pass | fail
    max_excess: float  # largest abs_diff - allowance, floored at 0

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "max_excess_over_allowance": self.max_excess,
            "grid_points": len(self.rows),
            "caveats": ["agreement is within truncation allowances, not exact beyond closed-form systems"],
        }


def identity_check(table: CountingTable, primes: PrimeSequence, sigma_lo: float, sigma_hi: float,
                   t_lo: float, t_hi: float) -> IdentityReport:
    """Compare :func:`laplace_psi` with :func:`neg_logderiv` / s at every point
    of the 5 x 4 grid of sigma in [sigma_lo, sigma_hi] and t in [t_lo, t_hi],
    the Euler side with the table's density.

    A point passes when the difference stays within the allowance: the Euler
    side's truncation bound over |s|, plus psi(B) B^{-sigma} / sigma for the
    range beyond B that the transform omits, plus 1e-9 for rounding.
    """
    psi_total = float(table.cum_lambda[-1])
    s = (np.linspace(sigma_lo, sigma_hi, 5)[:, None] + 1j * np.linspace(t_lo, t_hi, 4)).ravel()
    lap = laplace_psi(table, s)
    nld = neg_logderiv(primes, s, table.a)
    rhs = nld.value / s
    gap = lap - rhs
    diff = np.hypot(gap.real, gap.imag)  # rounded as abs() of each complex is; np.abs is not
    allowance = nld.truncation_bound / abs(s) + psi_total * table.bound ** (-s.real) / s.real + 1e-9
    rows = zip(*(col.tolist() for col in (s.real, s.imag, lap, rhs, diff, allowance)))
    return IdentityReport(tuple(rows), "pass" if np.all(diff <= allowance) else "fail",
                          float(np.max(diff - allowance, initial=0.0)))


@dataclass(frozen=True)
class ZetaSweep:
    """zeta by three methods on an s-grid, and the largest |difference| between two of them."""

    s: np.ndarray
    methods: tuple  # (euler, stieltjes, dirichlet) ZetaResults
    max_gap: float

    def to_dict(self):
        return {"verdict": f"max-method-gap={self.max_gap:.6g}", "grid_points": self.s.size}


def zeta_sweep(table: CountingTable, primes: PrimeSequence, sigma_lo: float, sigma_hi: float,
               t_lo: float, t_hi: float) -> ZetaSweep:
    """:func:`zeta_euler` (with the table's density), :func:`zeta_stieltjes` and :func:`zeta_dirichlet`,
    one call each, on the 7 x 5 grid of sigma in [sigma_lo, sigma_hi] and t in [t_lo, t_hi]."""
    s = (np.linspace(sigma_lo, sigma_hi, 7)[:, None] + 1j * np.linspace(t_lo, t_hi, 5)).ravel()
    methods = (zeta_euler(primes, s, table.a), zeta_stieltjes(table, s), zeta_dirichlet(table, s))
    e, st, d = (zr.value for zr in methods)
    gaps = np.array([e - st, e - d, st - d])
    return ZetaSweep(s, methods, float(np.max(np.hypot(gaps.real, gaps.imag))))


def g_eval(source, s, a: float | None = None) -> ZetaResult:
    """G(s) = zeta(s) - a/(s-1), direct region Re s > 1, at a point or an array.

    ``source`` is a PrimeSequence (Euler product, density ``a``) or a
    CountingTable (Mellin-Stieltjes form, preferred near sigma = 1 where the
    Euler product truncates badly; the density is the table's own).
    """
    s = _require_halfplane(s, 1.0, 0.0)  # off the pole at s = 1; the sum checks its phases
    on_table = isinstance(source, CountingTable)
    if on_table and a is not None:
        raise ValueError("g_eval reads the density from the table; do not pass a")
    a = source.a if on_table else a
    if a is None:
        raise ValueError("g_eval requires a density a")
    zr = zeta_stieltjes(source, s) if on_table else zeta_euler(source, s, a)
    return ZetaResult(zr.value - a / (s - 1.0), zr.truncation_bound, zr.tail_model)


def fourier_E1_boundary(table: CountingTable, t):
    """Numerical boundary value G(1+it) = (1+it) E1-hat(t) + a, truncated at B,
    at a point (a complex) or at each point of an array (an array).

    E1-hat(t) = integral_0^{log B} E1(u) e^{-itu} du is computed exactly
    piecewise: on each interval where N = c the integrand is
    (c e^{-u} - a) e^{-itu}.  Times 1+it, the N-part is the Stieltjes sum of N at
    s = 1+it; the a-part telescopes to -a (1 - e^{-i theta})/(it), theta = t log B,
    that is -a log B e^{-i theta/2} sinc(theta/2pi), which holds at t = 0 too.
    """
    if table.a is None:
        raise ValueError("fourier_E1_boundary requires a declared density a")
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not np.all(finite):
        raise DomainError(f"t must be finite, got {float(t.flat[np.argmin(finite)])}")
    s = _require_halfplane(1.0 + 1j * t, 0.0, table.log_bound)
    theta = t * table.log_bound
    part_a = -table.a * table.log_bound * np.exp(-0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
    g = _stieltjes_sum(table, table.jump_logs, None, table.total_count, s) + s * part_a + table.a
    return g if np.ndim(g) else complex(g)


@dataclass(frozen=True)
class BoundaryScan:
    """Samples of G(1+it) plus the widest symmetric floor-clearing interval."""

    ts: np.ndarray
    values: np.ndarray
    floor: float
    zero_free_halfwidth: float
    t_max: float

    def to_dict(self):
        return {
            "verdict": f"zero-free-halfwidth={self.zero_free_halfwidth:.6g}",
            "floor": self.floor,
            "t_max": self.t_max,
            "caveats": ["boundary values truncated at the enumeration bound; diagnostic, not a proof"],
        }


def finite_grid(lo: float, hi: float, log_bound: float) -> bool:
    """Whether np.linspace(lo, hi, n) and its phases t log B stay finite (not NaN)."""
    return math.isfinite(hi - lo) and math.isfinite(max(abs(lo), abs(hi)) * log_bound)


def s_grid_ok(sigma_lo: float, sigma_hi: float, t_lo: float, t_hi: float, log_bound: float) -> bool:
    """The s-grid rule of ``identity_check`` and ``zeta_sweep``: a finite grid in Re s > 1,
    where the Euler side converges, with finite phases to its reach, log B + POWER_REACH."""
    reach = log_bound + POWER_REACH
    return (finite_grid(sigma_lo, sigma_hi, reach) and finite_grid(t_lo, t_hi, reach)
            and min(sigma_lo, sigma_hi) > 1.0)


def scan_grid_ok(t_max: float, points: int, floor: float, log_bound: float) -> bool:
    """boundary_scan's rule: 0 < t_max on a finite grid, points >= 2 and floor >= 0."""
    return 0.0 < t_max and finite_grid(-t_max, t_max, log_bound) and points >= 2 and floor >= 0.0


def boundary_scan(table: CountingTable, t_max: float, points: int, floor: float) -> BoundaryScan:
    """Scan |G(1+it)| on a symmetric grid and report the largest interval
    around t = 0 on which it stays above ``floor``.  Diagnostic evidence for
    the zero-free radius, not a proof.  A grid off ``scan_grid_ok`` raises ValueError.
    """
    if not scan_grid_ok(t_max, points, floor, table.log_bound):
        raise ValueError(f"boundary_scan needs a grid scan_grid_ok accepts, got {t_max}, {points}, {floor}")
    ts = np.linspace(-t_max, t_max, points)
    vals = fourier_E1_boundary(table, ts)
    abs_ts = np.abs(ts)
    cutoff = np.min(abs_ts[~(np.abs(vals) > floor)], initial=np.inf)  # the nearest |t| not clearing it
    halfwidth = float(np.max(abs_ts[abs_ts < cutoff], initial=0.0))
    return BoundaryScan(ts, vals, floor, halfwidth, t_max)
