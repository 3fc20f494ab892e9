"""Zeta-side evaluations: Euler products, Mellin-Stieltjes sums, Laplace and
Fourier transforms of the step functions, and the regularized G(s).

Every method takes a point and returns a complex, or takes an array of points
and returns arrays of its shape.  N and psi are step functions, so every table
transform is one exact sum sum_k w_k n_k^{-s} over a jump list, which
``_moment_sum`` evaluates from Taylor moments, or term by term where the
moments would not pay.  The Euler side sums log zeta (w = 1/k) or
-zeta'/zeta (w = log p) over the prime powers p^k: through the same kernel
over every p^k with k log p <= log p_max + POWER_REACH, whose omitted powers
are below the rounding, and in closed form per prime for the primes near 1
and at points of large |s|.  The only honest error is the truncation beyond
the enumeration bound B.  Tail models need a declared density a; without one
the tail model is ``none``, not a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import CountingTable
from .errors import DomainError
from .systems import PrimeSequence

TAYLOR_TERMS = 20  # series terms per run of jumps in _moment_sum
KERNEL_CELLS = 1 << 14  # points x runs (or x terms) evaluated at once
DIRECT_RUNS = 0.25  # runs past this share of the terms are summed term by term
PRIME_RUNS = 1 / 32  # the Euler side's kernel cuts as many runs as this share of the primes
POWER_REACH = 37.0  # the Euler side's list keeps p^k up to k log p = log p_max + 37
MAX_POWERS = 128  # primes with more powers in reach are summed in closed form
LN2 = math.log(2.0)


@dataclass(frozen=True)
class ZetaResult:
    """A complex, or an array at an array of points, plus a heuristic bound on the omitted tail."""

    value: complex | np.ndarray
    method: str  # euler-product | stieltjes | dirichlet-sum
    truncation_bound: float | np.ndarray
    tail_model: str  # density | finite | none

    @property
    def re(self) -> float | np.ndarray:
        return self.value.real

    @property
    def im(self) -> float | np.ndarray:
        return self.value.imag


def _require_halfplane(s, least: float):
    """``s`` as a complex, or a complex array, every point finite with Re s > least."""
    s = np.asarray(s, dtype=complex)
    finite = np.isfinite(s)
    if not np.all(finite):
        raise DomainError(f"s must be finite, got {complex(s.flat[np.argmin(finite)])}")
    if np.any(s.real <= least):
        raise DomainError(f"Re s must exceed {least}, got {complex(s.flat[np.argmin(s.real)])}")
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


def _moment_sum(u, w, s, r):
    """sum_k w_k e^{-s u_k} at each point of the 1-d ``s``, the u cut into runs
    where floor(u r) is constant, r >= |s|.

    A run whose first jump is c sums to e^{-sc} sum_j (-s)^j m_j, with the
    moments m_j = sum_run w_k (u_k - c)^j / j! shared by all points
    (Odlyzko-Schonhage).  As |s (u_k - c)| < 1, stopping at TAYLOR_TERMS = 20
    omits at most e/20! ~ 1.1e-18 of sum_k |w_k| e^{-sigma c}; a run of one
    jump is exact.  Each (points x runs) block is evaluated by Horner's rule
    in -s along its rows.  When the runs outnumber DIRECT_RUNS of the jumps,
    the moments would cost more than they save, and the jumps are summed
    term by term instead.
    """
    cell = u * r
    np.floor(cell, out=cell)
    first = np.ones(u.size, dtype=bool)  # the first jump of each run
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del cell, first
    if starts.size > DIRECT_RUNS * u.size:
        def direct(x, cols):
            e = np.exp(x * u[cols])
            return e if w is None else np.multiply(e, w[cols], out=e)

        return _termwise(u, s, direct)
    c = u[starts]
    d = np.repeat(c, np.diff(starts, append=u.size))
    np.subtract(u, d, out=d)  # u_k - c over each run
    term = np.ones_like(u) if w is None else w.astype(float)
    moments = np.empty((TAYLOR_TERMS, c.size))
    for j in range(TAYLOR_TERMS):
        moments[j] = np.add.reduceat(term, starts) / math.factorial(j)
        term *= d
    del term, d

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
    ``density_bound(s, value)``.

    With reach = log p_max + POWER_REACH, the kernel's runs are 1/r wide for
    r * reach = PRIME_RUNS times the number of primes, a width set by the
    primes alone.  The points with |s| < r take it: one :func:`_moment_sum`
    call over the powers up to reach (:func:`_prime_powers`), plus the
    primes near 1 (more than MAX_POWERS powers in reach) in closed form.
    The other points are summed prime by prime in closed form
    (:func:`_per_prime`).  Which way a point goes depends on |s| alone, so an
    array gives each point exactly its own value.

    The kernel call pays a fixed cost, the list and 20 passes over it for the
    moments, about three passes over the primes; each of its points then
    costs Horner steps over at most PRIME_RUNS of the primes' count of runs.
    r is about 48 at 10^6 and 390 at 10^7.
    """
    s = _require_halfplane(s, 1.0)
    flat = np.ravel(s)
    logs = primes.logs
    reach = logs[-1] + POWER_REACH if logs.size else 1.0
    r = PRIME_RUNS * logs.size / reach
    on_list = np.abs(flat) < r
    value = np.empty(flat.shape, dtype=complex)
    value[~on_list] = _per_prime(logs, flat[~on_list], log_zeta)
    if np.any(on_list):
        near_one = np.searchsorted(logs, reach / MAX_POWERS)  # log p < reach / MAX_POWERS
        u, w = _prime_powers(logs[near_one:], reach, log_zeta)
        value[on_list] = _moment_sum(u, w, flat[on_list], r) + _per_prime(logs[:near_one], flat[on_list], log_zeta)
    value = (np.exp(value) if log_zeta else value).reshape(np.shape(s))
    value = value if value.ndim else complex(value)
    model = "finite" if primes.exhaustive else "none" if a is None else "density"
    bound = density_bound(s, value) if model == "density" else 0.0 * abs(s)  # a zero bound at each point
    return ZetaResult(value, "euler-product", bound, model)


def _prime_powers(logs, reach, log_zeta: bool):
    """The sorted u = k log p <= ``reach`` over the primes of ``logs`` (at most
    MAX_POWERS powers each) and their weights, 1/k (``log_zeta``) or log p.

    The list does not depend on the points.  A prime's omitted powers start
    past k log p = log p + POWER_REACH, so they sum to less than
    e^{-37 sigma} < 1e-16 of that prime's whole series of |w| p^{-k sigma}
    (for w = 1/k too, as 1/k falls): below the rounding of the sum.
    """
    k = np.arange(1, math.floor(reach / logs[0]) + 1 if logs.size else 1)
    count = np.searchsorted(logs, reach / k, side="right")  # for each k a prefix of the primes
    u = np.concatenate([j * logs[:n] for j, n in zip(k, count)] or [logs])  # k-major
    w = np.concatenate([np.full(n, 1.0 / j) if log_zeta else logs[:n] for j, n in zip(k, count)] or [logs])
    order = np.argsort(u, kind="stable")  # merges the k-major list's sorted pieces
    u = u[order]
    return u, w[order]


def _per_prime(logs, s, log_zeta: bool):
    """sum_p -log(1 - p^{-s}) (``log_zeta``) or sum_p log p / (p^s - 1) over
    the primes of ``logs``, at each point of the 1-d ``s``, by :func:`_termwise`.

    With t = p^{-s}, for p >= 2 (so |t| < 1/2) the terms are log p t / (1 - t)
    and -1/2 log1p(|1 - t|^2 - 1) - i arg(1 - t), with
    |1 - t|^2 - 1 = t_re (t_re - 2) + t_im^2; for the primes below 2 they take
    1 - t = -expm1(-s log p).  So every term is good to a few ulps of its
    modulus, and the log's imaginary part needs no unwrapping.
    """
    below, above = np.split(logs, [np.searchsorted(logs, LN2)])

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
    s = _require_halfplane(s, 1.0)
    if table.a is None:
        bound, model, tail = 0.0 * abs(s), "none", 0.0  # a zero bound at each point
    else:  # N ~ a x beyond B adds a B^{1-s}/(s-1) = (a B/(s-1)) B^{-s}
        bound, model, tail = _density_bound(table, s), "density", table.a * table.bound / (s - 1.0)
    return ZetaResult(_stieltjes_sum(table, table.jump_logs, None, -tail, s), "dirichlet-sum", bound, model)


def zeta_stieltjes(table: CountingTable, s) -> ZetaResult:
    """s * integral_1^B N(x) x^{-s-1} dx, exact piecewise, plus the density tail.

    Piecewise the integral telescopes to sum n_k^{-s} - N(B) B^{-s}; the tail
    s * a * B^{1-s}/(s-1) completes it assuming N ~ a x beyond B.  Without a
    density the finite part is returned with a linear-growth heuristic bound.
    """
    s = _require_halfplane(s, 1.0)
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
    return ZetaResult(_stieltjes_sum(table, table.jump_logs, None, n - tail, s), "stieltjes", bound, model)


def laplace_psi(table: CountingTable, s):
    """integral_0^{log B} psi(e^u) e^{-su} du, exact piecewise, Re s > 0, at a
    point (a complex) or at each point of an array (an array).

    No tail is added; for identity comparisons against -zeta'/(s zeta) the
    caller should allow psi(B) * B^{-sigma} / sigma for the omitted range.
    """
    s = _require_halfplane(s, 0.0)
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


def identity_check(table: CountingTable, primes: PrimeSequence, sigmas, ts) -> IdentityReport:
    """Compare :func:`laplace_psi` with :func:`neg_logderiv` / s at every
    (sigma, t) of the grid, the Euler side with the table's density.

    A point passes when the difference stays within the allowance: the Euler
    side's truncation bound over |s|, plus psi(B) B^{-sigma} / sigma for the
    range beyond B that the transform omits, plus 1e-9 for rounding.
    """
    psi_total = float(table.cum_lambda[-1])
    s = (np.asarray(sigmas, dtype=float)[:, None] + 1j * np.asarray(ts, dtype=float)).ravel()
    lap = laplace_psi(table, s)
    nld = neg_logderiv(primes, s, table.a)
    rhs = nld.value / s
    gap = lap - rhs
    diff = np.hypot(gap.real, gap.imag)  # rounded as abs() of each complex is; np.abs is not
    allowance = nld.truncation_bound / abs(s) + psi_total * table.bound ** (-s.real) / s.real + 1e-9
    rows = zip(*(col.tolist() for col in (s.real, s.imag, lap, rhs, diff, allowance)))
    return IdentityReport(tuple(rows), "pass" if np.all(diff <= allowance) else "fail",
                          float(np.max(diff - allowance, initial=0.0)))


def g_eval(source, s, a: float | None = None) -> ZetaResult:
    """G(s) = zeta(s) - a/(s-1), direct region Re s > 1, at a point or an array.

    ``source`` is a PrimeSequence (Euler product, density ``a``) or a
    CountingTable (Mellin-Stieltjes form, preferred near sigma = 1 where the
    Euler product truncates badly; the density is the table's own).
    """
    s = _require_halfplane(s, 1.0)  # which keeps s off the subtraction pole at s = 1
    on_table = isinstance(source, CountingTable)
    if on_table and a is not None:
        raise ValueError("g_eval reads the density from the table; do not pass a")
    a = source.a if on_table else a
    if a is None:
        raise ValueError("g_eval requires a density a")
    zr = zeta_stieltjes(source, s) if on_table else zeta_euler(source, s, a)
    return ZetaResult(zr.value - a / (s - 1.0), zr.method, zr.truncation_bound, zr.tail_model)


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
    theta = t * table.log_bound
    part_a = -table.a * table.log_bound * np.exp(-0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
    s = 1.0 + 1j * t
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


def boundary_scan(table: CountingTable, t_max: float, points: int, floor: float) -> BoundaryScan:
    """Scan |G(1+it)| on a symmetric grid and report the largest interval
    around t = 0 on which it stays above ``floor``.  Diagnostic evidence for
    the zero-free radius, not a proof.
    """
    ts = np.linspace(-t_max, t_max, points)
    vals = fourier_E1_boundary(table, ts)
    ok = np.abs(vals) > floor
    abs_ts = np.abs(ts)
    if np.all(ok):
        halfwidth = float(t_max)
    else:
        cutoff = float(np.min(abs_ts[~ok]))
        inside = abs_ts[abs_ts < cutoff]
        halfwidth = float(np.max(inside)) if inside.size else 0.0
    return BoundaryScan(ts, vals, floor, halfwidth, t_max)
