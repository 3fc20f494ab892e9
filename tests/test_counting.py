import math

import numpy as np
import pytest

from beurling import (
    PrimeSystemSpec,
    build_table,
    build_table_from_system,
    enumerate_integers,
    estimate_density,
    materialize,
)
from beurling.counting import QUERY_EPS, write_counting_csv
from beurling.hypothesis import ChebyshevReport, chebyshev_verdict


def table_for(values, bound, a=None):
    seq = materialize(PrimeSystemSpec.explicit(values), bound)
    return seq, build_table_from_system(seq, bound, a)


def test_build_examples():
    _, t = table_for([2, 3], 13)
    assert t.total_count == 8
    # counts just past each jump 1, 2, 3, 4, 6, 8, 9, 12
    past_jumps = np.array([1.5, 2.5, 3.5, 4.5, 6.5, 8.5, 9.5, 12.5])
    assert t.count_n(past_jumps).tolist() == list(range(1, 9))

    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)  # empty below bound
    t = build_table_from_system(seq, 5.0)
    assert t.total_count == 1
    assert t.jump_logs.tolist() == [0.0]
    assert t.psi(5.0) == 0.0


def test_build_table_from_enumeration_agrees():
    seq = materialize(PrimeSystemSpec.explicit([2, 3, 5]), 200)
    en = enumerate_integers(seq, 200)
    t1 = build_table(en, a=1.0)
    t2 = build_table_from_system(seq, 200, a=1.0)
    assert vars(t1).keys() == vars(t2).keys()
    for name, value in vars(t1).items():
        assert np.array_equal(value, vars(t2)[name]), name


def _prime_powers_below(values, bound):
    """Prime powers p^k < bound, k >= 1, over the listed primes with multiplicity."""
    count = 0
    for p in values:
        v = p
        while v < bound:
            count, v = count + 1, v * p
    return count


@pytest.mark.parametrize("spec, bound", [
    (PrimeSystemSpec.explicit([2, 2, 3]), 50.0),
    (PrimeSystemSpec.single(2), 2.0**10),
    (PrimeSystemSpec.rational(), 1e4),
], ids=["explicit-2-2-3", "single-2", "rational"])
def test_psi_list_matches_per_jump_oracle(spec, bound):
    # psi's jump list holds exactly the enumeration's rows with Lambda > 0, and
    # every psi query equals the per-jump cumulative sum over all N(B) rows
    seq = materialize(spec, bound)
    en = enumerate_integers(seq, bound)
    t = build_table(en, a=1.0)
    assert np.array_equal(t.psi_logs, en.logs[en.lambdas > 0])
    assert len(t.lambdas) == _prime_powers_below(seq.values.tolist(), bound)
    assert len(t.cum_lambda) == len(t.lambdas) + 1

    cum = np.concatenate(([0.0], np.cumsum(en.lambdas)))

    def below(u):
        return np.searchsorted(en.logs, np.asarray(u) - QUERY_EPS, side="left")

    xs = np.concatenate((np.exp(en.logs[en.logs > 0]), np.geomspace(1.0, bound, 101)))
    xs = np.clip(np.concatenate((xs, xs * (1 + 1e-12), xs * (1 - 1e-12))), 1.0, bound)
    assert np.array_equal(t.psi(xs), cum[below(np.log(xs))])
    us = np.log(xs)
    assert np.array_equal(t.normalized_psi(us), np.exp(-us) * cum[below(us)])

    # the window's jumps run from x_lo up to, not including, x_hi (strict convention)
    rows = np.arange(len(en.logs))
    for x_lo, x_hi in ((1.5, bound), (2.0, bound / 2), (3.0, 3.0), (bound / 3, bound)):
        mask = ((rows >= below(math.log(x_lo))) & (rows < below(math.log(x_hi)))
                & (en.lambdas > 0))
        xj = np.exp(en.logs[mask])
        ends = [cum[below(math.log(x_lo))] / x_lo, cum[below(math.log(x_hi))] / x_hi]
        oracle = ChebyshevReport(
            (x_lo, x_hi),
            float(np.min(np.concatenate(((cum[1:][mask] - en.lambdas[mask]) / xj, ends)))),
            float(np.max(np.concatenate((cum[1:][mask] / xj, ends)))),
            int(mask.sum()) * 2 + 2)
        assert chebyshev_verdict(t, x_lo, x_hi) == oracle


def test_count_examples(rational_1e4):
    _, t = rational_1e4
    assert t.count_n(10) == 9
    assert t.count_n(1) == 0
    assert t.count_n(1e4) == 9999  # the unit plus integers 2..9999


def test_count_powers_of_two():
    _, t = table_for([2.0], 16)
    assert t.count_n(9) == 4  # 1, 2, 4, 8


def test_psi_examples(rational_1e4):
    _, t = rational_1e4
    assert t.psi(10) == pytest.approx(math.log(2520), rel=1e-13)
    assert t.psi(1) == 0.0
    _, t2 = table_for([2.0], 16)
    assert t2.psi(9) == pytest.approx(3 * math.log(2), rel=1e-13)


def test_normalized_error(rational_1e4):
    _, t = rational_1e4
    assert t.normalized_error(math.log(10)) == pytest.approx(-0.1, abs=1e-12)
    assert t.normalized_error(0.0) == 0.0  # H(0) = 0, N(1) = 0
    assert t.normalized_error(-1.0) == 0.0
    _, t2 = table_for([2.0], 16, a=1.0)
    assert t2.normalized_error(math.log(9)) == pytest.approx(4 / 9 - 1, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_normalized_error_far_left_is_zero():
    # e^{-u} overflows below u = -709, where N(e^u) = 0: the product must be 0, not nan
    _, t = table_for([2, 3], 100, a=1.0)
    assert t.normalized_error(-800.0) == 0.0
    assert t.normalized_error(-math.inf) == 0.0
    got = t.normalized_error(np.array([-math.inf, -800.0, -1.0, math.log(10)]))
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    assert got[3] == pytest.approx(7 / 10 - 1, abs=1e-12)  # N(10) = 7


def test_normalized_psi(rational_1e4):
    _, t = rational_1e4
    assert t.normalized_psi(0.0) == 0.0
    assert t.normalized_psi(math.log(10)) == pytest.approx(math.log(2520) / 10, rel=1e-12)
    _, t2 = table_for([2.0], 16)
    assert t2.normalized_psi(math.log(9)) == pytest.approx(3 * math.log(2) / 9, rel=1e-12)


def test_monotonicity_and_domination(rational_1e4, rng):
    _, t = rational_1e4
    xs = np.sort(rng.uniform(1.5, 1e4, 300))
    ns = t.count_n(xs)
    ps = t.psi(xs)
    assert np.all(np.diff(ns) >= 0)
    assert np.all(np.diff(ps) >= 0)
    assert np.all(ps <= ns * np.log(xs))


def test_tauberian_inequality(rational_1e4, rng):
    # e^{-u} T(h) <= T(u + h) because psi is non-decreasing
    _, t = rational_1e4
    log_b = t.log_bound
    for _ in range(200):
        h = rng.uniform(0.1, log_b - 0.1)
        u = rng.uniform(0.0, log_b - h)
        assert math.exp(-u) * t.normalized_psi(h) <= t.normalized_psi(u + h) + 1e-12


def test_psi_equals_resummation(rational_1e4):
    _, t = rational_1e4
    # prefix sums in table order reproduce a direct cumulative sum exactly
    direct = np.cumsum(t.lambdas)
    assert np.array_equal(direct, t.cum_lambda[1:])
    assert t.cum_lambda[0] == 0.0


def test_count_matches_raw_enumeration(rational_1e4, rng):
    _, t = rational_1e4
    xs = rng.uniform(1.0, 1e4, 1000)
    for x in xs:
        expected = int(np.sum(t.jump_logs < math.log(x) - QUERY_EPS))
        assert t.count_n(float(x)) == expected


def test_query_validation(rational_1e4):
    _, t = rational_1e4
    with pytest.raises(ValueError):
        t.count_n(2e4)
    with pytest.raises(ValueError):
        t.psi(0.0)
    with pytest.raises(ValueError):
        t.normalized_psi(t.log_bound + 1.0)
    t_no_a = build_table_from_system(materialize(PrimeSystemSpec.single(2.0), 8.0), 8.0)
    with pytest.raises(ValueError):
        t_no_a.normalized_error(1.0)


def test_nan_queries_raise(rational_1e4):
    # NaN fails every comparison, so a guard written as "any bad" would let it through
    _, t = rational_1e4
    for query in (t.count_n, t.psi, t.normalized_error, t.normalized_psi):
        for x in (math.nan, np.array([2.0, math.nan])):
            with pytest.raises(ValueError):
                query(x)


def test_estimate_density(rational_1e4):
    _, t = rational_1e4
    a_hat, drift = estimate_density(t)
    assert a_hat == pytest.approx(1.0, abs=2e-3)
    assert drift < 2e-3
    # 1 < B < 2: only the unit is enumerated, and the grid must stay below B
    _, unit_only = table_for([2.0], 1.5)
    assert estimate_density(unit_only) == (1.0 / 1.5, 0.0)


def test_counting_csv(tmp_path, rational_1e4):
    _, t = rational_1e4
    path = tmp_path / "counting.csv"
    write_counting_csv(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,N,psi,psi_over_x,E1_log_x"
    assert len(lines) == 201
    last = lines[-1].split(",")
    assert float(last[0]) == 1e4
    # determinism: identical bytes on rewrite
    path2 = tmp_path / "counting2.csv"
    write_counting_csv(t, path2)
    assert path.read_bytes() == path2.read_bytes()
