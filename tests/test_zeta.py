import cmath
import math

import mpmath
import numpy as np
import pytest
import sympy

from beurling import (
    DomainError,
    PrimeSystemSpec,
    boundary_scan,
    build_table_from_system,
    fourier_E1_boundary,
    g_eval,
    identity_check,
    laplace_psi,
    materialize,
    neg_logderiv,
    zeta_dirichlet,
    zeta_euler,
    zeta_stieltjes,
)
from beurling import counting, semigroup, zeta
from beurling.zeta import _stieltjes_sum
from conftest import traced_peak

EULER_GAMMA = 0.5772156649015329


def system(values, bound):
    return materialize(PrimeSystemSpec.explicit(values), bound)


def table_for(values, bound, a=None):
    seq = system(values, bound)
    return build_table_from_system(seq, bound, a)


# --- Euler product ---

def test_euler_single_prime_exact():
    seq = system([2.0], 3.0)
    r = zeta_euler(seq, 2.0)
    assert r.value == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert r.truncation_bound == 0.0
    assert r.tail_model == "finite"


def test_euler_rational_pi_squared_over_six():
    seq = materialize(PrimeSystemSpec.rational(), 1e5)
    r = zeta_euler(seq, 2.0, a=1.0)
    assert r.tail_model == "density"
    assert abs(r.value - math.pi**2 / 6.0) <= r.truncation_bound
    assert r.truncation_bound < 1e-3


def test_euler_empty_system():
    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)
    assert zeta_euler(seq, 3.0).value == 1.0


@pytest.mark.parametrize("euler_side", [zeta_euler, neg_logderiv], ids=lambda f: f.__name__)
def test_euler_side_tail_models(euler_side):
    finite = euler_side(system([2.0], 3.0), 2.0, a=1.0)
    assert (finite.tail_model, finite.truncation_bound) == ("finite", 0.0)
    truncated = materialize(PrimeSystemSpec.rational(), 1e3)
    none = euler_side(truncated, 2.0)
    assert (none.tail_model, none.truncation_bound) == ("none", 0.0)
    density = euler_side(truncated, 2.0, a=1.0)
    assert density.tail_model == "density"
    assert 0.0 < density.truncation_bound < 0.01
    assert density.value == none.value


@pytest.mark.parametrize("method", [zeta_euler, neg_logderiv, g_eval], ids=lambda f: f.__name__)
def test_euler_side_refuses_density_off_the_rule(method):
    # the table's density rule; off it the tail bound would be negative, NaN
    # or infinite, and g_eval's a/(s-1) infinite
    primes = materialize(PrimeSystemSpec.rational(), 1e3)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="density"):
            method(primes, 2.0, a=bad)
    zero = method(primes, 2.0, a=0.0)
    assert zero.tail_model == "density" and zero.truncation_bound == 0.0


@pytest.mark.parametrize("method", [zeta_euler, neg_logderiv, g_eval], ids=lambda f: f.__name__)
def test_euler_side_array_matches_points(method):
    # every point makes its own pass over the primes, so an array gives each
    # point's value exactly; g_eval's a/(s-1) rounds as numpy divides
    rational = materialize(PrimeSystemSpec.rational(), 1e3)
    empty = system([7.0], 5.0)
    assert len(empty) == 0
    for seq, a in ((system([2, 3, 5], 3000), 0.5), (rational, None), (rational, 1.0), (empty, 0.5)):
        if method is g_eval and a is None:
            continue  # G needs a density
        for grid in ARRAY_GRIDS:
            res = method(seq, grid + 1.0, a)
            assert res.value.shape == np.shape(res.truncation_bound) == grid.shape
            for s, v, bound in zip(grid.flat, res.value.flat, np.ravel(res.truncation_bound)):
                one = method(seq, complex(s + 1.0), a)
                assert type(one.value) is complex
                if method is g_eval:
                    assert abs(v - one.value) <= 1e-15 * abs(one.value)
                else:
                    assert v == one.value
                assert abs(bound - one.truncation_bound) <= 1e-15 * one.truncation_bound
    # p^{-s} over an array of s must not pair point k with prime k: {2, 3} at
    # s = [2, 3] gives each point's full product, not (4/3)(27/26)
    two_three = method(system([2, 3], 10), np.array([2.0, 3.0]), 0.0).value
    full = {zeta_euler: [(4 / 3) * (9 / 8), (8 / 7) * (27 / 26)],
            neg_logderiv: [math.log(2) / 3 + math.log(3) / 8, math.log(2) / 7 + math.log(3) / 26]}
    full[g_eval] = full[zeta_euler]
    assert two_three == pytest.approx(full[method], rel=1e-15, abs=0.0)


def test_euler_domain():
    seq = system([2.0], 3.0)
    with pytest.raises(DomainError):
        zeta_euler(seq, 1.0)
    with pytest.raises(DomainError):
        zeta_euler(seq, 0.5 + 14j)
    table = build_table_from_system(seq, 3.0)
    for bad in (math.nan, complex(2.0, math.nan), complex(math.inf, 0.0)):
        for method, source in ((zeta_euler, seq), (neg_logderiv, seq),
                               (zeta_dirichlet, table), (zeta_stieltjes, table)):
            with pytest.raises(DomainError, match="finite"):
                method(source, bad)


# --- Stieltjes and Dirichlet forms ---

def test_stieltjes_single_prime_no_density():
    # zeta_{2}(s) = 1/(1 - 2^{-s}); finite truncation error ~ B^{-sigma}
    t = table_for([2.0], 2.0**10)
    r = zeta_stieltjes(t, 2.0)
    assert r.tail_model == "none"
    exact = 1.0 / (1.0 - 2.0**-2)
    assert abs(r.value - exact) <= 2.0**-10
    assert abs(r.value - exact) <= r.truncation_bound


def test_stieltjes_rational_apery():
    seq = materialize(PrimeSystemSpec.rational(), 1e5)
    t = build_table_from_system(seq, 1e5, 1.0)
    r = zeta_stieltjes(t, 3.0)
    apery = float(sympy.zeta(3))
    assert abs(r.value - apery) <= max(r.truncation_bound, 1e-9)


def test_methods_agree_within_bounds():
    seq = system([2, 3, 5], 3000)
    t = build_table_from_system(seq, 3000, a=None)
    s = 2.5 + 1.0j
    r_st = zeta_stieltjes(t, s)
    r_di = complex(np.sum(np.exp(-s * t.jump_logs)))
    # the raw Dirichlet partial sum and the telescoped Stieltjes finite part
    # differ by exactly the boundary term N(B) B^{-s} plus the added tail
    exact = 1.0
    for p in (2.0, 3.0, 5.0):
        exact /= 1.0 - p**-s
    assert abs(r_st.value - exact) <= r_st.truncation_bound
    assert abs(r_di - exact) <= 3000.0**-1.5 * t.total_count


def test_dirichlet_vs_stieltjes_tail_models():
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    s = 1.5
    r1 = zeta_dirichlet(t, s)
    r2 = zeta_stieltjes(t, s)
    exact = float(sympy.zeta(sympy.Rational(3, 2)))
    assert abs(r1.value - exact) <= r1.truncation_bound
    assert abs(r2.value - exact) <= r2.truncation_bound


# --- -zeta'/zeta ---

def test_neg_logderiv_single_prime():
    seq = system([2.0], 3.0)
    r = neg_logderiv(seq, 2.0)
    # log 2 * (1/4) / (3/4) = log 2 / 3
    assert r.value == pytest.approx(math.log(2) / 3.0, rel=1e-15)
    assert r.tail_model == "finite"


def test_neg_logderiv_matches_lambda_sum():
    seq = system([2, 3], 5000)
    t = build_table_from_system(seq, 5000)
    s = 2.0
    direct = complex(np.sum(t.lambdas * np.exp(-s * t.psi_logs)))
    r = neg_logderiv(seq, s)
    assert abs(r.value - direct) <= math.log(5000) * 5000.0**-2 * 10


def test_neg_logderiv_empty():
    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)
    assert neg_logderiv(seq, 2.0).value == 0.0


def _euler_oracle(primes, s):
    """zeta and -zeta'/zeta of the primes at s from the closed form of each
    prime's factor, 1/(1 - q^{-s}) and log q q^{-s}/(1 - q^{-s}), at 30 digits."""
    with mpmath.workdps(30):
        qs = [mpmath.mpf(float(q)) for q in primes.values]  # the floats the system holds
        terms = [mpmath.power(q, -mpmath.mpc(s)) for q in qs]
        zeta_ = mpmath.fprod(1 / (1 - t) for t in terms)
        nld = mpmath.fsum(mpmath.log(q) * t / (1 - t) for q, t in zip(qs, terms))
        return complex(zeta_), complex(nld)


@pytest.mark.parametrize("spec, bound, by_log_zeta", [(PrimeSystemSpec.rational(), 1e5, False),
                                                      (PrimeSystemSpec.scaled_rational(0.51), 300.0, True)],
                         ids=["rational-1e5", "scaled-0.51-300"])
def test_euler_side_against_mpmath(spec, bound, by_log_zeta):
    # zeta_euler is exp(log zeta), so its relative error is the rounding of the
    # sum log zeta, which grows with the sum of the moduli, log zeta(sigma):
    # 0.18 to 2.2 for the ordinary primes here, 3.3 to 6.9 for scaled-rational
    # 0.51, whose smallest prime 1.02 has slowly falling powers.  There the
    # tolerance scales with it.
    primes = materialize(spec, bound)
    for s in (1.1, 1.5 + 5j, 3 - 2j):
        zeta_, nld = _euler_oracle(primes, s)
        scale = math.log(_euler_oracle(primes, s.real)[0].real) if by_log_zeta else 1.0
        assert abs(zeta_euler(primes, s).value - zeta_) <= 1e-15 * scale * abs(zeta_)
        assert abs(neg_logderiv(primes, s).value - nld) <= 5e-15 * abs(nld)


def _kernel_width(primes):
    """The Euler side's kernel width r: the points with |s| < r take the kernel."""
    return zeta.PRIME_RUNS * len(primes) / (primes.logs[-1] + zeta.POWER_REACH)


def test_euler_side_routes_against_mpmath(monkeypatch):
    # on the primes to 1e5 the kernel takes the points with |s| < 6.18 and the
    # closed form prime by prime the rest: |s| = 5.2 and 7.2 sit on either
    # side.  In float the phase Im(s) log p of p^{-s} carries |s| log p ulps,
    # which sets the scale on both routes.
    primes = materialize(PrimeSystemSpec.rational(), 1e5)
    assert abs(1.5 + 5j) < _kernel_width(primes) <= abs(1.5 - 7j)
    kernel_points = []
    kernel = zeta._horner

    def counted(c, moments, s):
        kernel_points.extend(s)
        return kernel(c, moments, s)

    monkeypatch.setattr(zeta, "_horner", counted)
    for s, on_kernel in ((1.5 + 5j, True), (1.5 - 7j, False), (1.01 - 9000j, False), (4 + 1e5j, False)):
        zeta_, nld = _euler_oracle(primes, s)
        phase = np.finfo(float).eps * abs(s) * math.log(primes.bound)
        kernel_points.clear()
        assert abs(zeta_euler(primes, s).value - zeta_) <= phase * abs(zeta_)
        assert abs(neg_logderiv(primes, s).value - nld) <= phase * abs(nld)
        assert kernel_points == ([s, s] if on_kernel else [])


NEAR_ONE_SYSTEMS = {"1.000001-2": ([1.000001, 2.0], 3.0), "1.00000001-2": ([1.00000001, 2.0], 2.5),
                    "1.0001": ([1.0001], 2.0), "1.000001-primes-1e5": (None, 1e5)}


@pytest.mark.parametrize("name", NEAR_ONE_SYSTEMS)
def test_euler_side_primes_near_one_stay_small(name):
    # a prime this close to 1 has tens of millions of powers below the reach
    # (48.5 million for 1.000001 beside the primes to 1e5, some 390 MB per
    # float column); it is summed in closed form, so a call allocates at most
    # a few MiB, on the kernel's route (beside the ordinary primes to 1e5,
    # whose list holds 41,242 entries) as on the direct one
    values, bound = NEAR_ONE_SYSTEMS[name]
    if values is None:
        values = [1.000001, *materialize(PrimeSystemSpec.rational(), bound).values]
    primes = system(values, bound)
    points = (1.5, 1.01 + 3j, 2 - 5j)
    assert (max(map(abs, points)) < _kernel_width(primes)) == (len(primes) > 2)
    zeta_euler(primes, 2.0)  # its lazy scipy import is not the call's memory
    for s in points:
        zeta_, nld = _euler_oracle(primes, s)
        peak, (got_zeta, got_nld) = traced_peak(lambda: (zeta_euler(primes, s).value,
                                                         neg_logderiv(primes, s).value))
        assert peak < 1 << 22
        assert abs(got_zeta - zeta_) <= 1e-15 * math.log(abs(zeta_)) * abs(zeta_)
        assert abs(got_nld - nld) <= 5e-15 * abs(nld)


def test_euler_side_scaled_primes_near_one_stay_small():
    scaled = materialize(PrimeSystemSpec.scaled_rational(0.5000000001), 50.0)
    zeta_euler(scaled, 2.0)
    assert traced_peak(lambda: zeta_euler(scaled, np.array([1.5, 3 + 1j])))[0] < 1 << 20


# |s| from 1.01 to about 300, several points on each side of the kernel widths
# below (6.18 on the ordinary primes to 1e5, 11.4 on scaled-rational 0.51)
EULER_GRID = np.array([1.01, 1.5 + 1j, 1.2 - 0.3j, 2.0 + 2j, 3.0 - 1j, 1.1 + 5j, 4.0 + 4j,
                       2.5 - 9j, 1.05 + 12j, 3.0 + 20j, 1.3 - 25j, 1.01 + 33j, 2.0 - 39.9j, 40.0,
                       1.5 + 300j, 2 - 260j])


@pytest.fixture(scope="module")
def euler_systems():
    """(primes, a) on which the grid takes every route: the kernel below
    |s| = 6.18 and prime by prime beyond (ordinary primes to 1e5), the same
    below 11.4 beside a prime near 1 (scaled-rational 0.51, smallest prime
    1.02), and prime by prime throughout (the small systems)."""
    rational = materialize(PrimeSystemSpec.rational(), 1e3)
    return ((system([2, 3, 5], 3000), 0.5), (rational, None), (rational, 1.0),
            (materialize(PrimeSystemSpec.rational(), 1e5), 1.0),
            (materialize(PrimeSystemSpec.scaled_rational(0.51), 1e5), 1.0))


@pytest.mark.parametrize("method", [zeta_euler, neg_logderiv], ids=lambda f: f.__name__)
def test_euler_side_grid_matches_points(method, euler_systems):
    for seq, a in euler_systems:
        for grid in (EULER_GRID, EULER_GRID[::-1].reshape(2, 8)):
            res = method(seq, grid, a)
            for s, v, bound in zip(grid.flat, res.value.flat, np.ravel(res.truncation_bound)):
                one = method(seq, complex(s), a)
                assert v == one.value
                # the tail models round as numpy's array functions do (test_euler_side_array_matches_points)
                assert abs(bound - one.truncation_bound) <= 1e-15 * one.truncation_bound


def test_euler_side_one_kernel_call(monkeypatch, euler_systems):
    # one windowed pass over the powers at the kernel width r, and one Horner
    # call for all the kernel's points, if any
    calls, widths = [], []
    kernel, powers = zeta._horner, zeta._prime_powers

    def counted(c, moments, s):
        calls.append(s)
        return kernel(c, moments, s)

    def windows(logs, reach, r=0.0):
        widths.append(r)
        return powers(logs, reach, r)

    monkeypatch.setattr(zeta, "_horner", counted)
    monkeypatch.setattr(zeta, "_prime_powers", windows)
    for seq, a in euler_systems:
        r = _kernel_width(seq)
        on_kernel = EULER_GRID[np.abs(EULER_GRID) < r]
        assert on_kernel.size == {9592: 7, 17664: 8}.get(len(seq), 0)  # none on the small systems
        for method in (zeta_euler, neg_logderiv):
            calls.clear()
            widths.clear()
            method(seq, EULER_GRID, a)
            assert len(calls) == (on_kernel.size > 0)
            assert widths == [r] * len(calls)
            for s in calls:
                assert np.array_equal(s, on_kernel)


def test_euler_side_windows_match_full_list(euler_systems):
    # the windows of whole runs give, bit for bit, one kernel call over the
    # whole power list: levels k log p_j by k sequential sums, k-major and each
    # by descending j into one stable argsort
    for seq, a in euler_systems:
        r = _kernel_width(seq)
        s = EULER_GRID[np.abs(EULER_GRID) < r]
        if not s.size:
            continue
        reach = float(seq.logs[-1]) + zeta.POWER_REACH
        near_one = np.searchsorted(seq.logs, reach / zeta.MAX_POWERS)
        logs = seq.logs[near_one:]
        u, levels = np.zeros(logs.size), []
        while n := np.count_nonzero(u + logs[: u.size] < reach):
            u = u[:n] + logs[:n]
            levels.append((u[::-1], np.arange(n)[::-1], np.full(n, len(levels) + 1)))
        order = np.argsort(np.concatenate([u for u, _, _ in levels]), kind="stable")
        u, j, k = (np.concatenate(column)[order] for column in zip(*levels))
        for method, w, log_zeta in ((zeta_euler, 1.0 / k, True), (neg_logderiv, logs[j], False)):
            want = zeta._moment_sum(u, w, s, r) + zeta._per_prime(seq.logs[:near_one], s, log_zeta)
            assert np.array_equal(method(seq, s, a).value, np.exp(want) if log_zeta else want)


def _window_columns():
    """Eight float64 columns of the largest of BLOCK, RUN_JUMPS and KERNEL_CELLS, in bytes:
    a kernel call's window of jumps, or its (points x runs) blocks of complex terms."""
    return 8 * 8 * max(counting.BLOCK, zeta.RUN_JUMPS, zeta.KERNEL_CELLS)


def _euler_moments(primes):
    """The bytes of the Euler side's run moments and first powers, at most
    (TAYLOR_TERMS + 1) floats for each of its PRIME_RUNS * P + 1 runs and a
    cut every RUN_JUMPS of its at most MAX_POWERS * P powers, P primes."""
    runs = zeta.PRIME_RUNS * len(primes) + 1 + len(primes) * zeta.MAX_POWERS / zeta.RUN_JUMPS
    return 8 * (zeta.TAYLOR_TERMS + 1) * runs


def test_euler_side_peak_memory_bounded(rational_1e5, rational_1e6):
    # on the identity's 5 x 4 grid the primes to 1e6 take the kernel, whose
    # powers go a window of whole runs at a time and hold no level: the traced
    # peak stays under the runs' moments plus eight columns of a window, and
    # from 1e5 to 1e6 it grows by the moments' growth and two blocks at most
    primes, small = rational_1e6.value[0], rational_1e5[0]
    s = (np.linspace(1.5, 3.0, 5)[:, None] + 1j * np.linspace(-5.0, 5.0, 4)).ravel()
    assert np.all(np.abs(s) < _kernel_width(primes))
    for method in (neg_logderiv, zeta_euler):
        method(small, s, 1.0)  # zeta_euler's first call imports scipy
        peak, small_peak = (traced_peak(lambda: method(p, s, 1.0))[0] for p in (primes, small))
        assert peak < _euler_moments(primes) + _window_columns(), peak
        assert peak <= small_peak + _euler_moments(primes) - _euler_moments(small) + 2 * 8 * counting.BLOCK


def test_kernel_cuts_long_runs(monkeypatch):
    # a floor(u r) run is cut every RUN_JUMPS jumps from its first jump, however
    # the jumps are blocked, so no run is longer
    u = np.sort(np.random.default_rng(5).choice([0.1, 0.5, 0.9, 2.2, 2.3, 7.5], 60)) + 1e-3 * np.arange(60)
    natural = np.flatnonzero(np.r_[True, np.floor(u[1:]) != np.floor(u[:-1])])
    ends = np.append(natural[1:], u.size)
    want = np.concatenate([np.arange(a, b, 4) for a, b in zip(natural, ends)])
    assert np.max(np.diff(natural, append=u.size)) > 8  # runs of more than two cuts
    monkeypatch.setattr(zeta, "RUN_JUMPS", 4)
    for block in (1, 3, 4, 7, 60, 61):
        monkeypatch.setattr(counting, "BLOCK", block)
        assert np.array_equal(zeta._run_starts(u, 1.0, math.inf), want), block


def test_long_run_matches_direct_sum(rational_1e6):
    # at t = +-5 on 1e6 the longest floor(u r) run holds 163,182 jumps, so the
    # kernel cuts it; the cut runs' sums match the term-by-term sum to within
    # the series' e/20! of sum |w| e^{-sigma u} plus rounding
    u = rational_1e6.value[1].jump_logs
    s = 1.0 + 1j * np.array([-5.0, -2.5, 0.0, 2.5, 5.0])
    r = abs(s[0])
    assert np.max(np.unique(np.floor(u * r), return_counts=True)[1]) > 8 * zeta.RUN_JUMPS
    got = zeta._moment_sum(u, None, s, r)
    direct = zeta._termwise(u, s, lambda x, cols: np.exp(x * u[cols]))
    scale = np.sum(np.exp(-u))  # sum |w| e^{-sigma u}, sigma = 1
    assert np.all(np.abs(got - direct) <= (math.e / math.factorial(20) + 16 * np.finfo(float).eps) * scale)


def test_boundary_scan_blocks_match_one_point_at_a_time(rational_1e4, monkeypatch):
    # at t_max = 1e3 the 201 points take several (points x terms) blocks; with
    # blocks one point high each point gets the same value
    _, t = rational_1e4
    assert 201 * t.jump_logs.size > 4 * zeta.KERNEL_CELLS
    blocks = boundary_scan(t, 1e3, points=201, floor=1e-3).values
    monkeypatch.setattr(zeta, "KERNEL_CELLS", t.jump_logs.size)
    one_by_one = boundary_scan(t, 1e3, points=201, floor=1e-3).values
    assert np.all(np.abs(blocks - one_by_one) <= 1e-15 * np.abs(one_by_one))


def test_kernel_blocks_match_single_points(rational_1e4):
    # a point's sum does not depend on the points beside it in a block: at
    # r = 50 the 401 points take the moments in several (points x runs)
    # blocks, at r = 1000 the runs pass DIRECT_RUNS of the jumps and the jumps
    # go term by term
    _, t = rational_1e4
    for u, w in ((t.jump_logs, None), (t.psi_logs, t.lambdas)):
        for r, direct in ((50.0, False), (1000.0, True)):
            runs = np.unique(np.floor(u * r)).size
            assert (runs > zeta.DIRECT_RUNS * u.size) == direct
            assert 401 * (u.size if direct else runs) > zeta.KERNEL_CELLS  # more than one block
            s = 1.0 + 1j * np.linspace(-r, r, 401)
            sums = zeta._moment_sum(u, w, s, r)
            for k in range(0, 401, 20):
                assert sums[k] == zeta._moment_sum(u, w, s[k : k + 1], r)[0]



def test_moment_sums_independent_of_slice(monkeypatch):
    # the moments go over slices of whole runs, so each run is one reduceat
    # segment however the jumps are sliced: slices of 3 jumps give the values
    # of one slice over all of them, on the table's runs (t up to 5, and the
    # 1e4-wide grid, whose runs pass DIRECT_RUNS of the jumps) and on the
    # Euler side's kernel (|s| below 6.18 on the primes to 1e5)
    primes = materialize(PrimeSystemSpec.rational(), 1e5)
    table = build_table_from_system(primes, 1e5, 1.0)
    ts = np.concatenate((np.linspace(-5.0, 5.0, 41), np.linspace(-1e4, 1e4, 3)))
    s = (np.array([1.1, 1.5, 3.0])[:, None] + 1j * np.linspace(-5.0, 5.0, 5)).ravel()

    def values():
        return (fourier_E1_boundary(table, ts), zeta_stieltjes(table, s).value,
                neg_logderiv(primes, s).value)

    monkeypatch.setattr(counting, "BLOCK", table.total_count + 1)
    whole = values()
    monkeypatch.setattr(counting, "BLOCK", 3)
    for got, want in zip(values(), whole):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("method, point", [(laplace_psi, 1.5 + 1e308j), (zeta_stieltjes, 1.5 + 1e308j),
                                           (zeta_dirichlet, np.array([2.0, 1.5 + 1e308j])),
                                           (fourier_E1_boundary, 1e308), (zeta_euler, 1.5 + 1e308j),
                                           (neg_logderiv, np.array([2.0, 1.5 + 1e308j]))],
                         ids=["laplace_psi", "zeta_stieltjes", "zeta_dirichlet", "fourier_E1_boundary",
                              "zeta_euler", "neg_logderiv"])
def test_table_transforms_reject_overflowing_phases(method, point):
    # |s| log B overflows though s is finite: a DomainError, not NaN with an
    # overflow warning (an error under this suite's warning filter).  The Euler
    # side's B is its reach, log p_max + POWER_REACH: there it would return a
    # finite value whose phases carry no digits.
    table = table_for([2.0, 3.0], 1e3, a=1.0)
    source = system([2.0, 3.0], 1e3) if method in (zeta_euler, neg_logderiv) else table
    with pytest.raises(DomainError, match="log B must be finite"):
        method(source, point)
    fine = method(source, 1e300 if method is fourier_E1_boundary else 2.0 + 1e300j)  # 1e300 log B is finite
    assert np.isfinite(getattr(fine, "value", fine))


def test_boundary_scan_peak_memory_bounded(rational_1e5, rational_1e6):
    # the moments go over slices of whole runs of at most BLOCK jumps, and no
    # run holds more than RUN_JUMPS: eight columns of the larger of those and
    # KERNEL_CELLS, and from 1e5 to 1e6 the peak grows by two blocks at most
    table, small = rational_1e6.value[1], rational_1e5[1]
    peak, small_peak = (traced_peak(lambda: boundary_scan(t, 5.0, points=201, floor=1e-3))[0]
                        for t in (table, small))
    assert peak < _window_columns(), peak
    assert peak <= small_peak + 2 * 8 * counting.BLOCK

# --- Laplace transform of psi ---

def test_laplace_psi_single_prime_closed_form():
    # {2} up to 2^10: psi jumps by log 2 at u = k log 2, k = 1..9 (2^10 excluded)
    t = table_for([2.0], 2.0**10)
    s = 2.0
    l2 = math.log(2)
    acc = sum(l2 * math.exp(-s * k * l2) for k in range(1, 10))
    expected = (acc - 9 * l2 * 2.0 ** (-10 * s)) / s
    assert laplace_psi(t, s) == pytest.approx(expected, rel=1e-12)


def test_laplace_psi_is_negld_over_s_at_large_sigma():
    seq = system([2, 3], 1000)
    t = build_table_from_system(seq, 1000)
    s = 10.0
    lhs = laplace_psi(t, s)
    rhs = neg_logderiv(seq, s).value / s
    assert abs(lhs - rhs) <= 1e-25


def test_identity_check_passes_and_flags_mismatched_primes():
    # {2} to 2^10 is exhaustive, so its allowance is only the omitted range
    two = system([2.0], 2.0**10)
    table = build_table_from_system(two, 2.0**10)
    grid = (1.5, 3.0, -5.0, 5.0)  # sigma_lo, sigma_hi, t_lo, t_hi: a 5 x 4 grid
    good = identity_check(table, two, *grid)
    assert good.verdict == "pass" and good.max_excess == 0.0
    assert len(good.rows) == good.to_dict()["grid_points"] == 20
    sigma, t, lap, rhs, diff, allowance = good.rows[0]
    assert (sigma, t) == (1.5, -5.0) and diff == abs(lap - rhs) <= allowance
    sigmas, ts = np.linspace(1.5, 3.0, 5).tolist(), np.linspace(-5.0, 5.0, 4).tolist()
    assert [row[:2] for row in good.rows] == [(sigma, t) for sigma in sigmas for t in ts]
    bad = identity_check(table, system([3.0], 2.0**10), *grid)
    assert bad.verdict == "fail" and bad.max_excess > 0
    assert bad.to_dict()["max_excess_over_allowance"] == bad.max_excess


def test_laplace_psi_empty_and_domain():
    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)
    t = build_table_from_system(seq, 5.0)
    assert laplace_psi(t, 1.0) == 0.0
    for bad in (-1.0, np.array([2.0, 1.0 + 3j, -0.5 + 1j]), np.array([2.0, 0.0]),
                math.nan, complex(2.0, math.inf), np.array([2.0, complex(2.0, math.nan)])):
        with pytest.raises(DomainError):
            laplace_psi(t, bad)


# scattered points; the identity check's shape (sigma rows of equally spaced t);
# one equally spaced row; a diagonal whose t are equally spaced but whose sigma
# are not; and no points at all.  All lie in Re s > 0, and in Re s > 1 shifted by 1.
ARRAY_GRIDS = (
    np.array([[1.5 - 5j, 2.0, 3.0 + 2j], [0.5 + 1j, 10.0, 1.2 - 0.3j]]),
    np.linspace(1.5, 3.0, 5)[:, None] + 1j * np.linspace(-5.0, 5.0, 4),
    2.0 + 1j * np.linspace(-3.0, 3.0, 3),
    np.linspace(1.5, 3.0, 4) + 1j * np.linspace(-3.0, 3.0, 4),
    np.array([], complex),
)


def _value_and_bound(method, table, s):
    """A table transform's value and truncation bound; laplace_psi reports no bound."""
    if method is laplace_psi:
        return laplace_psi(table, s), np.zeros(np.shape(s))
    res = method(table, s)
    return res.value, res.truncation_bound


@pytest.mark.parametrize("method, a", [(laplace_psi, None), (zeta_stieltjes, None), (zeta_stieltjes, 1.0),
                                       (zeta_dirichlet, None), (zeta_dirichlet, 1.0), (g_eval, 1.0)],
                         ids=["laplace_psi", "stieltjes", "stieltjes-density", "dirichlet", "dirichlet-density",
                              "g_eval"])
def test_table_transforms_array_match_points(method, a):
    seq = system([2, 3, 5], 3000)
    t = build_table_from_system(seq, 3000, a)
    shift = 0.0 if method is laplace_psi else 1.0  # the zeta sums need Re s > 1
    for grid in ARRAY_GRIDS:
        values, bounds = _value_and_bound(method, t, grid + shift)
        assert values.shape == np.shape(bounds) == grid.shape
        for s, v, bound in zip(grid.flat, values.flat, np.ravel(bounds)):
            one = _value_and_bound(method, t, complex(s + shift))
            assert v == pytest.approx(one[0], rel=1e-13)
            assert bound == pytest.approx(one[1], rel=1e-15)
    assert type(_value_and_bound(method, t, 2.0 + shift)[0]) is complex


# --- G(s) ---

def test_g_single_prime():
    seq = system([2.0], 3.0)
    r = g_eval(seq, 2.0, a=0.0)
    assert r.value == pytest.approx(4.0 / 3.0, rel=1e-14)
    r2 = g_eval(seq, 2.0, a=1.0)
    assert r2.value == pytest.approx(4.0 / 3.0 - 1.0, rel=1e-13)


def test_g_pole():
    seq = system([2.0], 3.0)
    with pytest.raises(DomainError):
        g_eval(seq, 1.0, a=1.0)


def test_g_density_comes_from_the_table(rational_1e4):
    seq, t = rational_1e4
    on_table = g_eval(t, 1.01)
    assert on_table.value == pytest.approx(zeta_stieltjes(t, 1.01).value - 1.0 / 0.01, rel=1e-15)
    with pytest.raises(ValueError, match="density"):
        g_eval(t, 1.01, a=2.0)
    # a prime sequence carries no density, so there ``a`` is still the caller's
    assert g_eval(seq, 2.0, a=2.0).value == pytest.approx(g_eval(seq, 2.0, a=1.0).value - 1.0, rel=1e-13)


def test_g_requires_a_density():
    with pytest.raises(ValueError, match="requires a density"):
        g_eval(system([2.0], 3.0), 2.0)
    with pytest.raises(ValueError, match="requires a density"):
        g_eval(table_for([2.0], 3.0), 2.0)


def test_g_limit_toward_gamma():
    seq = materialize(PrimeSystemSpec.rational(), 1e5)
    t = build_table_from_system(seq, 1e5, 1.0)
    errors = [abs(g_eval(t, 1.0 + d).value - EULER_GAMMA) for d in (0.1, 0.01, 0.001)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-2


# --- boundary values ---

def test_fourier_gamma_at_zero():
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    assert fourier_E1_boundary(t, 0.0) == pytest.approx(EULER_GAMMA, abs=1e-3)


def test_fourier_degenerate_unit_only():
    # single integer 1, a = 0: N = 1 on [1, B), E1(u) = e^{-u}, so
    # G(1+it) = (1+it) E1-hat(t) = 1 - e^{-(1+it) log B}
    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)
    t = build_table_from_system(seq, 5.0, a=0.0)
    for tt in (0.0, 0.7, -2.0):
        expected = 1.0 - cmath.exp(-(1.0 + 1j * tt) * math.log(5.0))
        assert fourier_E1_boundary(t, tt) == pytest.approx(expected, abs=1e-14)


def test_fourier_conjugate_symmetry():
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    for tt in (0.5, 1.3, 4.0):
        plus = fourier_E1_boundary(t, tt)
        minus = fourier_E1_boundary(t, -tt)
        assert minus == pytest.approx(plus.conjugate(), rel=1e-12)


def test_fourier_continuity_from_right():
    # G(1 + delta + it) should approach the boundary value as delta -> 0
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    tt = 2.0
    target = fourier_E1_boundary(t, tt)
    gaps = []
    for d in (0.1, 0.01, 0.001):
        gaps.append(abs(g_eval(t, 1.0 + d + 1j * tt).value - target))
    assert gaps[0] > gaps[1] > gaps[2]


def test_fourier_requires_density():
    t = table_for([2.0], 8.0)
    with pytest.raises(ValueError):
        fourier_E1_boundary(t, 1.0)
    dense = table_for([2.0], 8.0, a=1.0)
    for bad in (math.nan, math.inf, np.array([0.0, -math.inf])):
        with pytest.raises(DomainError, match="finite"):
            fourier_E1_boundary(dense, bad)


def test_fourier_array_matches_points():
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    for ts in (np.array([-4.0, -0.3, 0.0, 1e-9, 0.7, 2.5]), np.linspace(-1.0, 2.0, 3), np.array([])):
        values = fourier_E1_boundary(t, ts)
        assert values.shape == ts.shape
        for tt, v in zip(ts, values):
            assert v == pytest.approx(fourier_E1_boundary(t, float(tt)), rel=1e-13)
    assert type(fourier_E1_boundary(t, 0.7)) is complex
    scan = boundary_scan(t, 3.0, points=61, floor=1e-3)
    for tt, v in zip(scan.ts, scan.values):
        assert v == pytest.approx(fourier_E1_boundary(t, float(tt)), rel=1e-13)


def test_boundary_grid_matches_points(rational_1e4):
    # a long grid cuts the jumps into runs 1/50 wide, a single point into wider
    # runs; the two must agree far below the scan's floors
    _, t = rational_1e4
    scan = boundary_scan(t, 50.0, points=2001, floor=1e-3)
    for tt, v in zip(scan.ts, scan.values):
        g = fourier_E1_boundary(t, float(tt))
        assert abs(v - g) <= 1e-12 * max(1.0, abs(g))
    # G(1) is real: the middle of an odd symmetric grid is t = 0
    assert scan.ts[1000] == 0.0 and scan.values[1000].imag == 0.0


def test_grid_sum_against_mpmath(rational_1e4):
    # the Stieltjes sum sum_k w_k n_k^{-s} - W(B) B^{-s} over N's jumps (w = 1) and
    # psi's (w = Lambda), on a long grid and at scattered points of large |s| and
    # mixed sigma, against exact sums over the table's integers
    _, t = rational_1e4
    ns = [int(n) for n in np.rint(np.exp(t.jump_logs))]
    lambdas = {n: mpmath.log(p) for n in ns if len(f := sympy.factorint(n)) == 1 for p in f}
    grid = 1.0 + 1j * np.linspace(-50.0, 50.0, 2001)
    scattered = np.array([1.05 + 1000j, 3 - 700j, 0.3 + 50j, 2.5 - 0.1j])
    for u, w, total, weights in ((t.jump_logs, None, t.total_count, dict.fromkeys(ns, 1)),
                                 (t.psi_logs, t.lambdas, t.cum_lambda[-1], lambdas)):
        for points, ks in ((grid, (1, 500, 1000, 1777, 2000)), (scattered, range(4))):
            sums = _stieltjes_sum(t, u, w, total, points)
            for k in ks:
                s = mpmath.mpc(points[k].real, points[k].imag)
                exact = complex(mpmath.fsum(wn * mpmath.power(n, -s) for n, wn in weights.items())
                                - mpmath.fsum(weights.values()) * mpmath.power(t.bound, -s))
                # the grid keeps its absolute bound; at sigma = 0.3 the sums reach ~640
                assert abs(sums[k] - exact) <= 1e-12 * (max(1.0, abs(exact)) if points is scattered else 1.0)


def test_fourier_continuous_at_zero():
    # the a-part -a(1 - e^{-it log B})/(it) has the limit -a log B at t = 0
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    g0 = fourier_E1_boundary(t, 0.0)
    for tt in (1e-8, -1e-8):
        assert abs(fourier_E1_boundary(t, tt) - g0) <= 1e-6


def test_fourier_against_mpmath_zeta():
    # ordinary primes, a = 1: G(1+it) = zeta(1+it) - 1/(it), and the range beyond B
    # that the table omits is s * integral_B^inf -{x} x^{-s-1} dx, about 1/(2B) in size
    bound = 1e5
    t = build_table_from_system(materialize(PrimeSystemSpec.rational(), bound), bound, 1.0)

    def exact(tt):
        return complex(mpmath.zeta(mpmath.mpc(1.0, tt)) - 1.0 / mpmath.mpc(0.0, tt))

    targets = (0.5, 1.3, 4.0, -2.0)
    for tt in targets:
        assert abs(fourier_E1_boundary(t, tt) - exact(tt)) <= 1.0 / bound
    scan = boundary_scan(t, 4.0, points=161, floor=1e-3)
    for target in targets:
        k = int(np.argmin(np.abs(scan.ts - target)))
        assert abs(scan.ts[k] - target) < 1e-12
        assert abs(scan.values[k] - exact(float(scan.ts[k]))) <= 1.0 / bound


def test_boundary_scan_basic():
    seq = materialize(PrimeSystemSpec.rational(), 1e4)
    t = build_table_from_system(seq, 1e4, 1.0)
    scan = boundary_scan(t, 3.0, points=121, floor=1e-3)
    assert scan.ts.shape == scan.values.shape == (121,)
    assert np.all(np.abs(scan.values[np.abs(scan.ts) <= scan.zero_free_halfwidth]) > scan.floor)
    # |G| near gamma at the center, comfortably above the default floor
    mid = scan.values[60]
    assert abs(mid) == pytest.approx(EULER_GAMMA, abs=1e-3)


def test_boundary_scan_reports_failure():
    # a degenerate table with huge floor: nothing clears it
    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)
    t = build_table_from_system(seq, 5.0, a=0.0)
    scan = boundary_scan(t, 2.0, points=41, floor=10.0)
    assert scan.zero_free_halfwidth == 0.0
    assert scan.to_dict()["verdict"] == "zero-free-halfwidth=0"
    assert scan.to_dict()["t_max"] == 2.0


@pytest.mark.parametrize("t_max, points, floor", [
    (5.0, 0, 1e-3), (5.0, 1, 1e-3), (0.0, 201, 1e-3), (-5.0, 201, 1e-3), (math.nan, 201, 1e-3),
    (math.inf, 201, 1e-3), (1e308, 201, 1e-3), (5.0, 201, math.nan), (5.0, 201, -1e-3),
], ids=["no-points", "one-point", "t-max-0", "t-max-negative", "t-max-nan", "t-max-inf",
        "t-max-overflows", "floor-nan", "floor-negative"])
def test_boundary_scan_rejects_grids_it_cannot_judge(rational_1e4, t_max, points, floor):
    # the CLI refuses the same grids before the table is built, by the same rule
    _, t = rational_1e4
    assert not zeta.scan_grid_ok(t_max, points, floor, t.log_bound)
    with pytest.raises(ValueError, match="boundary_scan needs"):
        boundary_scan(t, t_max, points, floor)


# --- cross-check against sympy closed forms for a tiny hand-built system ---

def test_hand_built_against_sympy():
    t = table_for([2.0, 3.0], 7.0)  # integers 1, 2, 3, 4, 6
    s_sym, u = sympy.symbols("s u", positive=True)
    for s in (2.0, 3.5, 1.5 + 2.0j):
        finite = sum(sympy.exp(-sympy.log(n) * s_sym) for n in (1, 2, 3, 4, 6))
        expected = complex((finite - 5 * sympy.exp(-sympy.log(7) * s_sym)).subs(s_sym, s))
        got = zeta_stieltjes(t, s)
        assert got.value == pytest.approx(expected, rel=1e-12)


def test_dirichlet_without_density_has_no_tail():
    seq = materialize(PrimeSystemSpec.rational(), 1e3)
    zr = zeta_dirichlet(build_table_from_system(seq, 1e3), 2.0)
    assert zr.tail_model == "none"
    assert zr.truncation_bound == 0.0
    assert zr.value == pytest.approx(sum(n ** -2.0 for n in range(1, 1000)), rel=1e-12)
