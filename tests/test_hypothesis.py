import json
import math
import tracemalloc

import numpy as np
import pytest

from beurling import (
    PrimeSystemSpec,
    build_table_from_system,
    chebyshev_verdict,
    l1_condition,
    little_o_trend,
    materialize,
    omega_lemma_check,
    tail_sup,
    zhang_condition,
)
from beurling import hypothesis
from beurling.hypothesis import (
    CONSISTENT,
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    VIOLATED,
    _pieces,
)
from conftest import diamond_partial_naturals


def table_for(values, bound, a=None):
    seq = materialize(PrimeSystemSpec.explicit(values), bound)
    return build_table_from_system(seq, bound, a)


@pytest.fixture(scope="module")
def rational_2000():
    seq = materialize(PrimeSystemSpec.rational(), 2000.0)
    return build_table_from_system(seq, 2000.0, 1.0)


# --- L1 condition ---

def test_l1_partials_match_closed_form(rational_2000):
    # for the ordinary integers with a = 1 the partial up to an integer X is
    # sum_{n<X} (log(1 + 1/n) - 1/(n+1)), computable independently
    checkpoints = [10, 100, 500, 1000]
    rep = l1_condition(rational_2000, checkpoints=checkpoints)
    for (x, p), x_int in zip(rep.checkpoints, checkpoints):
        assert x == x_int
        assert p == pytest.approx(diamond_partial_naturals(x_int), abs=1e-12)
    assert rep.exact


def test_l1_rational_convergent(rational_2000):
    rep = l1_condition(rational_2000)
    assert rep.verdict == CONVERGENT
    # total stays below the limit 1 - gamma
    assert rep.checkpoints[-1][1] < 1 - 0.5772156649015329


def test_l1_degenerate_unit_only():
    # N = 1 on [1, B), a = 1: integral_1^B (x-1)/x^2 ... with B = e the
    # partial is exactly 1/e (|1 - x|/x^2 integrates to log x + 1/x - 1)
    seq = materialize(PrimeSystemSpec.explicit([7.0]), math.e)
    t = build_table_from_system(seq, math.e, 1.0)
    rep = l1_condition(t, checkpoints=[math.e])
    assert rep.checkpoints[0][1] == pytest.approx(1.0 / math.e, abs=1e-12)


def test_l1_single_prime_divergent():
    seq = materialize(PrimeSystemSpec.single(2.0), 2.0**20)
    t = build_table_from_system(seq, 2.0**20, 1.0)
    rep = l1_condition(t)
    assert rep.verdict == DIVERGENT
    # N grows like log x so |N - x|/x^2 ~ 1/x and partials grow by ~log 10
    # per decade
    assert rep.tail_estimate > 1.0


@pytest.mark.parametrize("condition", [l1_condition, zhang_condition], ids=lambda f: f.__name__)
def test_l1_partials_non_decreasing(rational_2000, condition):
    rep = condition(rational_2000)
    ps = [p for _, p in rep.checkpoints]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("condition", [l1_condition, zhang_condition], ids=lambda f: f.__name__)
def test_partials_continuous_across_jumps(rational_2000, condition):
    # a partial inside a piece (the scalar path) must meet the whole-piece
    # cumulative sums on both sides of each jump
    for n in (2, 3, 10, 97, 1000, 1999):
        rep = condition(rational_2000, checkpoints=[n * (1 - 1e-12), n, n * (1 + 1e-12)])
        ps = [p for _, p in rep.checkpoints]
        assert max(ps) - min(ps) <= 1e-10, (n, ps)


def test_l1_requires_density():
    t = table_for([2.0], 8.0)
    with pytest.raises(ValueError):
        l1_condition(t)
    # the table accepts a = 0, the check does not
    with pytest.raises(ValueError):
        l1_condition(table_for([2.0], 8.0, a=0.0))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            table_for([2.0], 8.0, a=bad)


# --- Zhang tail-sup condition ---

def test_tail_sup_bound_on_naturals(rational_2000):
    # |N(t) - t| <= 1 for the ordinary integers, so S(x) <= 1/x
    xs = np.geomspace(2.0, 2000.0, 50)
    s = tail_sup(rational_2000, xs)
    assert np.all(s <= 1.0 / xs + 1e-12)
    assert np.all(s >= 0)


def test_tail_sup_non_increasing(rational_2000, rng):
    xs = np.sort(rng.uniform(1.0, 2000.0, 200))
    s = tail_sup(rational_2000, xs)
    assert np.all(np.diff(s) <= 1e-15)


def test_tail_sup_rejects_points_outside_range(rational_2000):
    for xs in ([0.5, 2.0], [2.0, 2000.5]):
        with pytest.raises(ValueError, match=r"\[1, bound\]"):
            tail_sup(rational_2000, xs)


def test_tail_sup_strict_at_jumps(rational_2000):
    # N(n) = n - 1 for the ordinary integers under the strict convention, so
    # S(n) = |(n - 1)/n - 1| = 1/n, which the later pieces never exceed
    ns = np.arange(1.0, 2001.0)
    assert tail_sup(rational_2000, ns) == pytest.approx(1.0 / ns, rel=1e-12)


def test_zhang_dominates_l1(rational_2000):
    # S(x)/x >= |N(x) - ax|/x^2 pointwise, so partials dominate too
    checkpoints = np.geomspace(2.0, 2000.0, 24)
    l1 = l1_condition(rational_2000, checkpoints=checkpoints)
    zh = zhang_condition(rational_2000, checkpoints=checkpoints)
    for (_, pl), (_, pz) in zip(l1.checkpoints, zh.checkpoints):
        assert pz >= pl - 1e-12


def test_zhang_rational_convergent(rational_2000):
    rep = zhang_condition(rational_2000)
    assert rep.verdict == CONVERGENT
    assert any("truncated" in c for c in rep.caveats)


def test_zhang_single_prime_divergent():
    seq = materialize(PrimeSystemSpec.single(2.0), 2.0**20)
    t = build_table_from_system(seq, 2.0**20, 1.0)
    assert zhang_condition(t).verdict == DIVERGENT


def test_zhang_partial_matches_quadrature(rational_2000):
    # independent check of the piecewise closed form by brute quadrature
    xs = np.geomspace(1.0001, 50.0, 20001)
    s = tail_sup(rational_2000, xs)
    quad = np.trapezoid(s, np.log(xs))  # integral of S(e^u) du
    rep = zhang_condition(rational_2000, checkpoints=[50.0])
    assert rep.checkpoints[0][1] == pytest.approx(float(quad), abs=5e-3)
    # and against a hand sum for the ordinary integers, where S = 1/(n+1)
    # on [n, n+1) below 50
    hand = sum(math.log(1 + 1 / n) / (n + 1) for n in range(1, 50))
    assert rep.checkpoints[0][1] == pytest.approx(hand, abs=1e-12)


# --- little-o trend ---

def test_trend_rational_consistent(rational_2000):
    rep = little_o_trend(rational_2000)
    assert rep.verdict == CONSISTENT
    assert len(rep.sample_x) == len(rep.sample_d)
    # D(x) <= log(x)/x for the ordinary integers
    assert np.all(rep.sample_d <= np.log(np.maximum(rep.sample_x, 1.0)) / rep.sample_x + 1e-12)


def test_trend_single_prime_violated():
    seq = materialize(PrimeSystemSpec.single(2.0), 2.0**20)
    t = build_table_from_system(seq, 2.0**20, 1.0)
    assert little_o_trend(t).verdict == VIOLATED


def test_trend_wrong_density_violated():
    # a = 2 makes |N - ax|/x tend to 1, so D grows like log x
    seq = materialize(PrimeSystemSpec.rational(), 2000.0)
    rep = little_o_trend(build_table_from_system(seq, 2000.0, 2.0))
    assert rep.verdict == VIOLATED


def test_trend_few_windows_inconclusive():
    # B = 5 has the dyadic edges 1, 1.25, 2.5, 5: three windows, too few to judge a trend
    rep = little_o_trend(table_for([2.0, 3.0], 5.0, a=1.0))
    assert len(rep.window_sups) == 3
    assert rep.verdict == INCONCLUSIVE


def test_trend_window_sups_cover_jump_limits(rational_2000):
    rep = little_o_trend(rational_2000)
    for lo, hi, sup in rep.window_sups:
        mask = (rep.sample_x > lo) & (rep.sample_x <= hi)
        if np.any(mask):
            assert sup >= np.max(rep.sample_d[mask]) - 1e-12


# --- omega lemma ---

def test_omega_convergent_decaying():
    # omega(x) = 1/log^2(e x): integral_1^X omega/x dx = 1 - 1/(1 + log X)
    rep = omega_lemma_check(lambda x: 1.0 / np.log(np.e * x) ** 2, 1e8,
                            checkpoints=[10.0, 1e4, 1e8])
    for x, p in rep.checkpoints:
        assert p == pytest.approx(1.0 - 1.0 / (1.0 + math.log(x)), rel=1e-5)
    assert rep.verdict == CONVERGENT
    assert rep.decaying
    assert not rep.contradiction


def test_omega_constant_divergent():
    rep = omega_lemma_check(lambda x: np.full_like(np.asarray(x, dtype=float), 0.5), 1e8)
    assert rep.verdict == DIVERGENT
    assert not rep.decaying
    assert not rep.contradiction


def test_omega_slow_decay_not_convergent():
    # 1/log(e x) integrates to log(1 + log X): divergent, but the per-decade
    # increments shrink, so the decade heuristic stays short of a divergence
    # call; it must not claim convergence either
    rep = omega_lemma_check(lambda x: 1.0 / np.log(np.e * x), 1e8)
    assert rep.verdict != CONVERGENT
    assert not rep.contradiction


def test_omega_zero():
    rep = omega_lemma_check(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 1e4)
    assert rep.verdict == CONVERGENT
    assert rep.checkpoints[-1][1] == 0.0


def test_omega_rejects_bad_inputs():
    with pytest.raises(ValueError):
        omega_lemma_check(np.log, 1e4)  # increasing
    with pytest.raises(ValueError):
        omega_lemma_check(lambda x: -1.0 / x, 1e4)  # negative
    with pytest.raises(ValueError):
        omega_lemma_check(lambda x: 1.0 / x, 0.5)  # bad range


# --- Chebyshev window ---

def test_chebyshev_rational(rational_2000):
    rep = chebyshev_verdict(rational_2000, 100.0, 2000.0)
    assert 0.8 < rep.ratio_min < rep.ratio_max < 1.2
    assert rep.grid_size > 2


def test_chebyshev_single_prime_degenerate():
    seq = materialize(PrimeSystemSpec.single(2.0), 2.0**20)
    t = build_table_from_system(seq, 2.0**20, 1.0)
    rep = chebyshev_verdict(t, 2.0**10, 2.0**20)
    # psi(x) ~ log x so psi/x -> 0
    assert rep.ratio_min < 1e-3
    assert rep.ratio_max < 0.05


def test_chebyshev_exact_on_tiny_window():
    # {2} below 16: psi jumps at 2, 4, 8; on [3, 7] the extrema are explicit
    t = table_for([2.0], 16.0)
    rep = chebyshev_verdict(t, 3.0, 7.0)
    l2 = math.log(2)
    assert rep.ratio_max == pytest.approx(2 * l2 / 4.0, abs=1e-14)
    assert rep.ratio_min == pytest.approx(l2 / 4.0, abs=1e-14)


def test_chebyshev_window_stops_before_jump_on_x_hi(rational_2000):
    # the right limit psi(4+)/4 lies outside [2, 4]; the sup is psi(3+)/3
    rep = chebyshev_verdict(rational_2000, 2.0, 4.0)
    assert rep.ratio_max == pytest.approx(math.log(6.0) / 3.0, rel=1e-14)
    assert rep.ratio_min == 0.0  # psi(2)/2, the left limit at x_lo
    assert rep.grid_size == 2 * 2 + 2  # the jumps at 2 and 3


def test_chebyshev_nested_windows(rational_2000):
    inner = chebyshev_verdict(rational_2000, 200.0, 1000.0)
    outer = chebyshev_verdict(rational_2000, 100.0, 2000.0)
    assert outer.ratio_min <= inner.ratio_min
    assert outer.ratio_max >= inner.ratio_max


def test_chebyshev_errors(rational_2000):
    with pytest.raises(ValueError):
        chebyshev_verdict(rational_2000, 100.0, 50.0)
    with pytest.raises(ValueError):
        chebyshev_verdict(rational_2000, 0.5, 100.0)
    with pytest.raises(ValueError):
        chebyshev_verdict(rational_2000, 100.0, 5000.0)


# --- determinism ---

def test_reports_deterministic(rational_2000):
    r1 = l1_condition(rational_2000).to_dict()
    r2 = l1_condition(rational_2000).to_dict()
    assert r1 == r2
    z1 = zhang_condition(rational_2000).to_dict()
    z2 = zhang_condition(rational_2000).to_dict()
    assert z1 == z2


def test_report_dicts_list_their_fields(rational_2000):
    # each to_dict serializes as the hand-listed dicts it replaced
    def same(report, expected):
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)

    l1 = l1_condition(rational_2000)
    same(l1, {"checkpoints": [[x, p] for x, p in l1.checkpoints],
              "tail_estimate": l1.tail_estimate, "verdict": l1.verdict, "exact": l1.exact,
              "caveats": list(l1.caveats)})
    ch = chebyshev_verdict(rational_2000, 10.0, 2000.0)
    same(ch, {"window": list(ch.window), "ratio_min": ch.ratio_min, "ratio_max": ch.ratio_max,
              "grid_size": ch.grid_size,
              "verdict": f"ratio_min={ch.ratio_min:.12g},ratio_max={ch.ratio_max:.12g}"})
    om = omega_lemma_check(lambda x: 1.0 / np.log(np.e * x) ** 2, 1e8)
    same(om, {"checkpoints": [[x, p] for x, p in om.checkpoints], "verdict": om.verdict,
              "logweight_sups": [[lo, hi, s] for lo, hi, s in om.logweight_sups],
              "decaying": om.decaying, "contradiction": om.contradiction})


# --- reference oracles and memory ---

def _reference_zhang_r(table):
    """Zhang's per-piece R from six N-length arrays: both one-sided values at
    each piece's ends, their suffix max, shifted one piece, and the left end."""
    a = table.a
    x = np.exp(np.concatenate((table.jump_logs, [table.log_bound])))
    c = np.arange(1, table.total_count + 1, dtype=float)
    g_lo = np.abs(c / x[:-1] - a)
    g_hi = np.abs(c / x[1:] - a)
    m = np.maximum(g_lo, g_hi)
    suffix = np.maximum.accumulate(m[::-1])[::-1]
    suffix_next = np.concatenate((suffix[1:], [0.0]))
    return np.maximum(g_hi, suffix_next)


def _reference_window_sups(table):
    """little-o window sups from one boolean mask per dyadic window over every
    piece's two end values and the window edges."""
    a, b = table.a, table.bound
    edges = np.array([1.0] + [b / 2**k for k in range(64) if b / 2**k > 1.0][::-1])
    u = np.concatenate((table.jump_logs, [table.log_bound]))
    x = np.exp(u)
    c = np.arange(1, table.total_count + 1, dtype=float)
    cand_x = np.concatenate((x[:-1], x[1:], edges))
    cand_d = np.concatenate((u[:-1] * np.abs(c / x[:-1] - a), u[1:] * np.abs(c / x[1:] - a),
                             np.log(edges) * np.abs(table.count_n(edges) - a * edges) / edges))
    out = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (cand_x > lo) & (cand_x <= hi)
        out.append((float(lo), float(hi), float(np.max(cand_d[mask])) if np.any(mask) else 0.0))
    return tuple(out)


@pytest.mark.parametrize("spec, bound, a", [
    (PrimeSystemSpec.rational(), 1e4, 1.0),
    (PrimeSystemSpec.single(2.0), 2.0**12, 1.0),  # every dyadic edge is a jump
    # with a small a the right limit at an edge jump tops the window above it,
    # so the window that jump falls in shows
    (PrimeSystemSpec.single(2.0), 2.0**12, 1e-3),
    (PrimeSystemSpec.explicit([2.0, 2.0, 3.0]), 50.0, 1.0),
    (PrimeSystemSpec.scaled_rational(1.2), 1e4, 0.6),
], ids=["rational", "single-2", "single-2-small-a", "explicit-2-2-3", "scaled-1.2"])
def test_jump_extrema_match_reference(spec, bound, a):
    t = build_table_from_system(materialize(spec, bound), bound, a)
    r = _reference_zhang_r(t)
    _, _, h = _pieces(t)
    assert np.array_equal(np.maximum.accumulate(h[::-1])[::-1][1:], r)
    # on the first jump j of each value, N = j and |j/x_j - a| is part of R[j],
    # so tail_sup reads R[j] = r[j - 1] itself
    first = np.unique(t.jump_logs, return_index=True)[1][1:]
    assert np.array_equal(tail_sup(t, np.exp(t.jump_logs[first])), r[first - 1])
    assert little_o_trend(t).window_sups == _reference_window_sups(t)


def test_integral_reports_independent_of_block(rational_2000, monkeypatch):
    # whole pieces are summed a block at a time as one sequential pass
    reports = [f(rational_2000).to_dict() for f in (l1_condition, zhang_condition)]
    monkeypatch.setattr(hypothesis, "BLOCK", 7)
    assert [f(rational_2000).to_dict() for f in (l1_condition, zhang_condition)] == reports


@pytest.mark.parametrize("check", [l1_condition, zhang_condition, little_o_trend],
                         ids=lambda f: f.__name__)
def test_check_peak_memory_bounded(rational_1e6, check):
    # each check holds fewer than eight float64 arrays of N(B) entries at once
    _, table = rational_1e6.value
    tracemalloc.start()
    try:
        check(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * table.total_count, peak / (8 * table.total_count)
