import math

import numpy as np
import pytest

from beurling import (
    PrimeSystemSpec,
    build_table,
    build_table_from_system,
    enumerate_integers,
    materialize,
)
from beurling.counting import QUERY_EPS, CountingTable, write_counting_csv
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
    t1 = build_table(en, seq, a=1.0)
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
    (PrimeSystemSpec.explicit([2, 4, 8]), 1e4),  # distinct primes with equal powers
    (PrimeSystemSpec.scaled_rational(0.6), 1e4),  # primes below 2
], ids=["explicit-2-2-3", "single-2", "rational", "explicit-2-4-8", "scaled-0.6"])
def test_psi_list_matches_per_jump_oracle(spec, bound):
    # psi's jump list holds exactly the enumeration's prime-power rows (stem 0,
    # the unit excluded) in row order, and every psi query equals the per-jump
    # cumulative sum over all N(B) rows
    seq = materialize(spec, bound)
    en = enumerate_integers(seq, bound)
    t = build_table(en, seq, a=1.0)
    lambdas = np.array([seq.logs[g.exponents[0][0]] if len(g.exponents) == 1 else 0.0 for g in en])
    power = np.flatnonzero(en.stem == 0)[1:]
    assert np.array_equal(power, np.flatnonzero(lambdas > 0))
    assert np.array_equal(t.psi_logs, en.logs[power])
    assert np.array_equal(t.lambdas, lambdas[power])  # the rows' tie order too
    assert len(t.lambdas) == _prime_powers_below(seq.values.tolist(), bound)
    assert len(t.cum_lambda) == len(t.lambdas) + 1

    cum = np.concatenate(([0.0], np.cumsum(lambdas)))

    def below(u):
        return np.searchsorted(en.logs, np.asarray(u) - QUERY_EPS, side="left")

    xs = np.concatenate((np.exp(en.logs[en.logs > 0]), np.geomspace(1.0, bound, 101)))
    xs = np.clip(np.concatenate((xs, xs * (1 + 1e-12), xs * (1 - 1e-12))), 1.0, bound)
    assert np.array_equal(t.psi(xs), cum[below(np.log(xs))])

    # the window's jumps run from x_lo up to, not including, x_hi (strict convention)
    rows = np.arange(len(en.logs))
    for x_lo, x_hi in ((1.5, bound), (2.0, bound / 2), (3.0, 3.0), (bound / 3, bound)):
        mask = ((rows >= below(math.log(x_lo))) & (rows < below(math.log(x_hi)))
                & (lambdas > 0))
        xj = np.exp(en.logs[mask])
        ends = [cum[below(math.log(x_lo))] / x_lo, cum[below(math.log(x_hi))] / x_hi]
        oracle = ChebyshevReport(
            (x_lo, x_hi),
            float(np.min(np.concatenate(((cum[1:][mask] - lambdas[mask]) / xj, ends)))),
            float(np.max(np.concatenate((cum[1:][mask] / xj, ends)))),
            int(mask.sum()) * 2 + 2)
        assert chebyshev_verdict(t, x_lo, x_hi) == oracle


def test_table_rejects_bad_psi_list():
    logs = np.log([1.0, 2.0, 3.0])
    for psi_logs, lambdas in ((logs[1:], logs[1:2]), (logs[1:, None], logs[1:, None]), (logs[1], logs[1])):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            CountingTable(logs, psi_logs, lambdas, 4.0)


def test_count_examples(rational_1e4):
    _, t = rational_1e4
    assert t.count_n(10) == 9
    assert t.count_n(1) == 0
    assert t.count_n(1e4) == 9999  # the unit plus integers 2..9999


# The enumeration cuts at log n < log B in float, the queries at log B - QUERY_EPS, so
# an integer equal to B whose summed float log falls below log B is a row that count_n(B)
# leaves out.  Making the cut strict changes tie-gen's enumeration.csv, so it waits on
# a remade benchmark reference (ROADMAP item 2).
_ROW_AT_BOUND = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the enumeration keeps rows "
                                  "equal to B until its cut is strict and the benchmark reference is remade")


def _case_id(v):
    return v.variant + "".join(f"-{p:g}" for p in v.params) if isinstance(v, PrimeSystemSpec) else f"{v:g}"


@pytest.mark.parametrize("spec, bound", [
    pytest.param(PrimeSystemSpec.rational(), 1e4, marks=_ROW_AT_BOUND),
    pytest.param(PrimeSystemSpec.rational(), 1e5, marks=_ROW_AT_BOUND),
    (PrimeSystemSpec.rational(), 2.0**17),
    (PrimeSystemSpec.rational(), 2.0**20),
    (PrimeSystemSpec.single(2.0), 2.0**20),
    (PrimeSystemSpec.single(2.0), 1e6),
    (PrimeSystemSpec.explicit([2.0, 5.0]), 2.0**20),
    pytest.param(PrimeSystemSpec.explicit([2.0, 5.0]), 1e6, marks=_ROW_AT_BOUND),
    (PrimeSystemSpec.scaled_rational(0.6), 1e4),
    (PrimeSystemSpec.scaled_rational(0.6), 2.0**14),
    (PrimeSystemSpec.scaled_rational(2.0), 1e4),
    (PrimeSystemSpec.scaled_rational(2.0), 2.0**14),
], ids=_case_id)
def test_total_count_is_count_below_bound(spec, bound):
    # the strict convention in every layer: the table holds exactly the integers n < B
    t = build_table_from_system(materialize(spec, bound), bound)
    assert t.total_count == t.count_n(bound)


def test_count_powers_of_two():
    _, t = table_for([2.0], 16)
    assert t.count_n(9) == 4  # 1, 2, 4, 8


def test_psi_examples(rational_1e4):
    _, t = rational_1e4
    assert t.psi(10) == pytest.approx(math.log(2520), rel=1e-13)
    assert t.psi(1) == 0.0
    _, t2 = table_for([2.0], 16)
    assert t2.psi(9) == pytest.approx(3 * math.log(2), rel=1e-13)


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

    def T(u):  # e^{-u} psi(e^u)
        return math.exp(-u) * t.psi(min(math.exp(u), t.bound))

    log_b = t.log_bound
    for _ in range(200):
        h = rng.uniform(0.1, log_b - 0.1)
        u = rng.uniform(0.0, log_b - h)
        assert math.exp(-u) * T(h) <= T(u + h) + 1e-12


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


def test_nan_queries_raise(rational_1e4):
    # NaN fails every comparison, so a guard written as "any bad" would let it through
    _, t = rational_1e4
    for query in (t.count_n, t.psi):
        for x in (math.nan, np.array([2.0, math.nan])):
            with pytest.raises(ValueError):
                query(x)


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
