import json
import math

import numpy as np
import pytest
from scipy.special import lambertw

from beurling import (
    PrimeSystemSpec,
    build_table_from_system,
    chebyshev_verdict,
    l1_condition,
    little_o_trend,
    materialize,
    tail_sup,
    zhang_condition,
)
from beurling import hypothesis, semigroup
from beurling.hypothesis import (
    CONSISTENT,
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    VIOLATED,
)
from conftest import diamond_partial_naturals, traced_peak


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


@pytest.mark.parametrize("condition", [l1_condition, zhang_condition], ids=lambda f: f.__name__)
def test_nan_checkpoint_rejected_before_the_read(condition, monkeypatch):
    # a NaN checkpoint lies in no piece; it once ended the pass in a bare KeyError
    table = build_table_from_system(materialize(PrimeSystemSpec.rational(), 1e3), 1e3, 1.0)
    monkeypatch.setattr(hypothesis, "_blocks", lambda *args: pytest.fail("the table was read"))
    with pytest.raises(ValueError, match="NaN"):
        condition(table, [float("nan")])


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


@pytest.mark.parametrize("check", [l1_condition, zhang_condition], ids=lambda f: f.__name__)
def test_slow_growth_is_inconclusive(check):
    # a = 1.01 on the ordinary primes: |N - ax|/x^2 ~ 0.01/x, so the integral grows
    # like 0.01 log X, by about the same amount each decade; the verdict must not
    # claim convergence, and flat increments stay short of a divergence call
    seq = materialize(PrimeSystemSpec.rational(), 1e5)
    rep = check(build_table_from_system(seq, 1e5, 1.01))
    assert rep.verdict == INCONCLUSIVE
    assert rep.tail_estimate == pytest.approx(0.01 * math.log(10.0), rel=0.02)


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


def test_trend_window_sups_cover_dense_samples():
    # On [2, 3] with a = 0.1, N > ax on many pieces, where D falls for x >= e, so
    # the right limit at a window's lower edge is often its sup; below e, on the
    # piece N = 2, D peaks at x = 2.40973 inside window (1.2207, 2.4414]
    table = table_for([2.0, 3.0], 1e4, a=0.1)
    sups = little_o_trend(table).window_sups
    assert sups[1][2] == pytest.approx(0.642018, abs=1e-6)
    for lo, hi, sup in sups:
        x = np.linspace(lo, hi, 100_001)[1:]
        d = np.log(x) * np.abs(table.count_n(x) - 0.1 * x) / x
        assert sup >= np.max(d), (lo, hi)


def test_trend_window_sups_cover_jump_limits(rational_2000):
    rep = little_o_trend(rational_2000)
    for lo, hi, sup in rep.window_sups:
        mask = (rep.sample_x > lo) & (rep.sample_x <= hi)
        if np.any(mask):
            assert sup >= np.max(rep.sample_d[mask]) - 1e-12


# --- Zhang's lemma on the table ---

@pytest.mark.parametrize("spec, bound, a", [
    (PrimeSystemSpec.rational(), 1e5, 1.0),
    (PrimeSystemSpec.single(2.0), 2.0**20, 1.0 / math.log(2.0)),
    (PrimeSystemSpec.explicit([2.0, 3.0, 5.0]), 1e5, 0.5),
    (PrimeSystemSpec.scaled_rational(0.6), 1e4, 1.0),
], ids=["rational", "single-prime", "explicit", "scaled-rational"])
def test_zhang_lemma_on_table(spec, bound, a):
    # S(x) = sup_{t >= x} |N(t) - at|/t does not increase, so
    # Z(x) - Z(sqrt x) = integral_{sqrt x}^x S(t)/t dt >= S(x) log(x) / 2: the step
    # from Zhang's condition to N(x) = ax + o(x/log x).  It holds for S truncated
    # at B too, and where S is flat it is an equality, so rounding in Z is allowed.
    table = build_table_from_system(materialize(spec, bound), bound, a)
    xs = np.geomspace(4.0, bound, 40)
    z = dict(zhang_condition(table, checkpoints=np.concatenate((xs, np.sqrt(xs)))).checkpoints)
    zx, zroot = (np.array([z[x] for x in pts.tolist()]) for pts in (xs, np.sqrt(xs)))
    margin = zx - zroot - tail_sup(table, xs) * np.log(xs) / 2.0
    assert np.all(margin >= -1e-12 * (1.0 + zx)), margin.min()


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
    piece's two end values and the window edges.  Under the strict convention
    a piece's left end x belongs to the window lo <= x < hi, and its right end
    and an edge to lo < x <= hi; a piece of zero length, between tied jumps,
    has no ends.  An edge that cuts a piece is the left end of its part in
    the window above.  Where N = c > a, D also peaks at y = log x =
    1 - W(a e / c) (Lambert's W, the root of c(1 - y) = a e^y), a candidate
    where that lies inside the piece."""
    a, b = table.a, table.bound
    edges = np.array([1.0] + [b / 2**k for k in range(64) if b / 2**k > 1.0][::-1])
    u = np.concatenate((table.jump_logs, [table.log_bound]))
    x = np.exp(u)
    c = np.arange(1, table.total_count + 1, dtype=float)
    real = x[:-1] < x[1:]  # pieces of positive length
    n_edge = np.searchsorted(x[:-1], edges, side="right")  # N just right of each edge
    cut = x[:-1][n_edge - 1] < edges  # no jump on the edge
    left_x = np.concatenate((x[:-1][real], edges[cut]))
    left_d = np.concatenate(((u[:-1] * np.abs(c / x[:-1] - a))[real],
                             (np.log(edges) * np.abs(n_edge / edges - a))[cut]))
    right_x = np.concatenate((x[1:][real], edges))
    right_d = np.concatenate(((u[1:] * np.abs(c / x[1:] - a))[real],
                              np.log(edges) * np.abs(table.count_n(edges) - a * edges) / edges))
    y = 1.0 - lambertw(a * math.e / np.maximum(c, a)).real
    peak = (c > a) & (u[:-1] < y) & (y < u[1:])
    peak_x, peak_d = np.exp(y[peak]), (y * (c * np.exp(-y) - a))[peak]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        cand = np.concatenate((left_d[(left_x >= lo) & (left_x < hi)],
                               right_d[(right_x > lo) & (right_x <= hi)],
                               peak_d[(peak_x > lo) & (peak_x <= hi)]))
        out.append((float(lo), float(hi), float(np.max(cand)) if cand.size else 0.0))
    return tuple(out)


@pytest.mark.parametrize("spec, bound, a", [
    (PrimeSystemSpec.rational(), 1e4, 1.0),
    (PrimeSystemSpec.single(2.0), 2.0**12, 1.0),  # every dyadic edge is a jump
    # with a small a the right limit at an edge jump tops the window above it,
    # so the window that jump falls in shows
    (PrimeSystemSpec.single(2.0), 2.0**12, 1e-3),
    (PrimeSystemSpec.explicit([2.0, 2.0, 3.0]), 50.0, 1.0),
    # value ties on the edges: 2^k is k + 1 tied integers
    (PrimeSystemSpec.explicit([2.0, 2.0]), 2.0**10, 1e-3),
    (PrimeSystemSpec.scaled_rational(1.2), 1e4, 0.6),
], ids=["rational", "single-2", "single-2-small-a", "explicit-2-2-3", "explicit-2-2-small-a",
        "scaled-1.2"])
def test_jump_extrema_match_reference(spec, bound, a):
    t = build_table_from_system(materialize(spec, bound), bound, a)
    r = _reference_zhang_r(t)
    # R at the jumps x_1..x_N, the right ends of the pieces, block by block
    assert np.array_equal(np.concatenate([rb[1:] for *_, rb in hypothesis._suffix_blocks(t, a)]), r)
    # on the first jump j of each value, N = j and |j/x_j - a| is part of R[j],
    # so tail_sup reads R[j] = r[j - 1] itself
    first = np.unique(t.jump_logs, return_index=True)[1][1:]
    assert np.array_equal(tail_sup(t, np.exp(t.jump_logs[first])), r[first - 1])
    assert little_o_trend(t).window_sups == _reference_window_sups(t)
    # the three checks run together report what each reports alone
    together = hypothesis.checks_on_n(t, hypothesis.CHECKS_ON_N)
    for name, alone in zip(hypothesis.CHECKS_ON_N, (l1_condition, zhang_condition, little_o_trend)):
        assert json.dumps(together[name].to_dict()) == json.dumps(alone(t).to_dict()), name


@pytest.mark.parametrize("names, reads", [
    (("l1", "zhang", "little-o"), 2), (("l1",), 1), (("little-o",), 1), (("little-o", "l1"), 1),
    (("zhang",), 2), (("zhang", "l1"), 2),
])
def test_checks_on_n_read_count(rational_2000, monkeypatch, names, reads):
    # Zhang's R takes one read for the blocks' maxima of h; everything else shares the last read
    real, calls = hypothesis._blocks, []
    monkeypatch.setattr(hypothesis, "_blocks", lambda *args: calls.append(args) or real(*args))
    assert list(hypothesis.checks_on_n(rational_2000, names)) == list(names)
    assert len(calls) == reads


def test_checks_on_n_rejects_unknown_names(rational_2000):
    with pytest.raises(ValueError, match="checks on N are l1, zhang, little-o"):
        hypothesis.checks_on_n(rational_2000, ["l1", "chebyshev"])


def _checks_on_n(table):
    """Every check on N, as comparable values: the reports' dicts, alone and
    from one call of checks_on_n, tail_sup at the jumps, just beside them, and
    on a geometric grid, and the Chebyshev verdict on psi's whole list and on
    a window whose ends sit on psi's jumps."""
    xs = np.exp(table.jump_logs)
    xs = np.concatenate((xs, xs * (1 + 1e-12), np.geomspace(1.0, table.bound, 97)))
    on_jumps = np.exp(table.psi_logs[[2, -3]])
    return ([f(table).to_dict() for f in (l1_condition, zhang_condition)],
            json.dumps(little_o_trend(table).to_dict()),
            json.dumps({name: rep.to_dict()
                        for name, rep in hypothesis.checks_on_n(table, hypothesis.CHECKS_ON_N).items()}),
            tail_sup(table, np.minimum(xs, table.bound)).tolist(),
            [chebyshev_verdict(table, lo, hi).to_dict()
             for lo, hi in ((1.5, table.bound), (on_jumps[0], min(on_jumps[1], table.bound)))])


def test_integral_reports_independent_of_block(rational_2000, monkeypatch):
    # each check is one pass over the jumps a block at a time: blocks of 7
    # (which split the tie groups of [2, 2, 3], where 2^k is k + 1 tied
    # integers), one block short of N(B), and one block past it; on the
    # single prime 2 with a small a the edge jumps' one-sided limits set
    # little-o's window sups
    default = semigroup.BLOCK
    single = build_table_from_system(materialize(PrimeSystemSpec.single(2.0), 2.0**12), 2.0**12, 1e-3)
    for table in (rational_2000, table_for([2.0, 2.0, 3.0], 3000.0, a=1.0), single):
        monkeypatch.setattr(semigroup, "BLOCK", default)
        want = _checks_on_n(table)
        for block in (7, table.total_count - 1, table.total_count + 5):
            monkeypatch.setattr(semigroup, "BLOCK", block)
            assert _checks_on_n(table) == want, block


CHECKS_ON_N = {"l1_condition": l1_condition, "zhang_condition": zhang_condition,
               "little_o_trend": little_o_trend,
               "checks_on_n": lambda t: hypothesis.checks_on_n(t, hypothesis.CHECKS_ON_N),
               "tail_sup": lambda t: tail_sup(t, np.geomspace(1.0, t.bound, 400)),
               "chebyshev_verdict": lambda t: chebyshev_verdict(t, 2.0, t.bound)}


@pytest.mark.parametrize("check", CHECKS_ON_N)
def test_check_peak_memory_bounded(rational_1e5, rational_1e6, check):
    # each check holds O(BLOCK) floats beside the table: less than one float64
    # column of N(B) entries, and its peak at 1e6 is its peak at 1e5 (where
    # N(B) is ten times smaller) plus at most two blocks of floats
    name, check = check, CHECKS_ON_N[check]
    small, table = rational_1e5[1], rational_1e6.value[1]
    peak = traced_peak(lambda: check(table))[0]
    assert peak < 8 * table.total_count, peak / (8 * table.total_count)
    assert peak <= traced_peak(lambda: check(small))[0] + 2 * 8 * semigroup.BLOCK
    if name == "checks_on_n":  # each check's block temporaries go before the next one's come
        alone = max(traced_peak(lambda: f(table))[0] for f in (l1_condition, zhang_condition, little_o_trend))
        assert peak <= alone + 2 * 8 * semigroup.BLOCK, (peak - alone) / (8 * semigroup.BLOCK)
