import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from beurling import (
    CapacityError,
    PrimeSystemSpec,
    build_table_from_system,
    enumerate_integers,
    jump_arrays,
    materialize,
    semigroup,
    zeta_euler,
)
from beurling.semigroup import DUMP_BLOCK, write_dump
from conftest import brute_force_dump, brute_force_enumerate, trial_division_primes


def system(values, bound):
    return materialize(PrimeSystemSpec.explicit(values), bound)


def test_example_2_3_below_13():
    en = enumerate_integers(system([2, 3], 13), 13)
    values = [round(g.value, 9) for g in en]
    assert values == [1, 2, 3, 4, 6, 8, 9, 12]
    assert len(en) == 8


def test_example_coincident_primes():
    en = enumerate_integers(system([2, 2], 5), 5)
    values = [round(g.value, 9) for g in en]
    assert values == [1, 2, 2, 4, 4, 4]
    vectors = Counter(g.exponents for g in en)
    assert vectors == Counter(
        [(), ((0, 1),), ((1, 1),), ((0, 2),), ((0, 1), (1, 1)), ((1, 2),)]
    )
    assert all(m == 1 for m in vectors.values())


def test_value_ties_ordered_lexicographically():
    en = enumerate_integers(system([2, 2], 5), 5)
    # at value 2: (0,1) is dense-lex larger than (1,1); at 4 likewise
    assert [g.exponents for g in en] == [
        (),
        ((1, 1),),
        ((0, 1),),
        ((1, 2),),
        ((0, 1), (1, 1)),
        ((0, 2),),
    ]


def test_empty_system_yields_unit():
    seq = materialize(PrimeSystemSpec.explicit([7.0]), 5.0)
    assert len(seq) == 0
    en = enumerate_integers(seq, 5.0)
    assert len(en) == 1
    unit = next(iter(en))
    assert unit.log_value == 0.0 and unit.exponents == ()
    assert not unit.prime_power


def test_enumeration_rejects_bad_bound():
    seq = system([2, 3], 10)
    for enumerate_ in (enumerate_integers, jump_arrays):
        for bad in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and > 1"):
                enumerate_(seq, bad)


def test_enumeration_past_materialized_bound_raises():
    seq = materialize(PrimeSystemSpec.rational(), 100)
    for enumerate_ in (enumerate_integers, jump_arrays):
        with pytest.raises(ValueError, match="materialized"):
            enumerate_(seq, 1000)
    with pytest.raises(ValueError, match="materialized"):
        build_table_from_system(seq, 1000, 1.0)
    assert build_table_from_system(seq, 100, 1.0).count_n(100) == 99
    # an exhaustive sequence holds the whole system, so any bound is complete
    finite = system([2, 3], 10)
    assert finite.exhaustive
    assert len(enumerate_integers(finite, 100)) == len(brute_force_enumerate([2, 3], 100))


def test_von_mangoldt():
    seq = system([2, 3], 20)
    en = enumerate_integers(seq, 20)
    lam = {round(g.value): w for g, w in zip(en, en.lambdas.tolist())}
    assert lam[8] == pytest.approx(math.log(2), abs=1e-15)
    assert lam[9] == pytest.approx(math.log(3), abs=1e-15)
    assert lam[6] == 0.0
    assert lam[1] == 0.0


@pytest.mark.parametrize(
    "values,bound",
    [
        ([2, 3], 1000),
        ([2, 2], 1000),
        ([2, 3, 5], 1000),
        ([1.5, 2.5, 3.5], 1000),
        ([1.5, 1.5, 2.5, 3.5], 400),
    ],
)
def test_matches_brute_force_oracle(values, bound):
    seq = system(values, bound)
    en = enumerate_integers(seq, bound)
    oracle = brute_force_enumerate(values, bound)
    assert len(en) == len(oracle)
    # identical log multisets (same accumulation path, so exact)
    assert sorted(g.log_value for g in en) == sorted(lv for lv, _ in oracle)
    # identical exponent-vector multisets
    assert Counter(g.exponents for g in en) == Counter(e for _, e in oracle)
    # values agree to 1e-12 relative against direct products
    for g in en:
        direct = math.prod(values[i] ** e for i, e in g.exponents)
        assert abs(g.value - direct) <= 1e-12 * direct


def test_log_value_consistent_with_exponents():
    seq = system([2, 3, 5], 500)
    for g in enumerate_integers(seq, 500):
        recomputed = sum(e * seq.logs[i] for i, e in g.exponents)
        assert abs(g.log_value - recomputed) <= 1e-12 * max(1.0, abs(recomputed))


def test_no_duplicate_exponent_vectors():
    seq = system([2, 2, 3, 5], 300)
    seen = set()
    for g in enumerate_integers(seq, 300):
        assert g.exponents not in seen
        seen.add(g.exponents)


def test_jump_arrays_matches_generic_route(rational_1e4, single_prime_2_20):
    cases = [(system(values, bound), bound)
             for values, bound in [([2, 3], 500), ([2, 2], 200), ([1.5, 2.5, 3.5], 300)]]
    cases += [(seq, table.bound) for seq, table in (rational_1e4, single_prime_2_20)]
    for seq, bound in cases:
        logs, lams = jump_arrays(seq, bound)
        en = enumerate_integers(seq, bound)
        gen_logs = [g.log_value for g in en]
        assert logs.tolist() == gen_logs
        assert lams.tolist() == en.lambdas.tolist()
        # Lambda is log p on prime powers p^m and 0 elsewhere, unit included
        for g, w in zip(en, lams.tolist()):
            assert w == (seq.logs[g.exponents[0][0]] if g.prime_power else 0.0)


@pytest.mark.parametrize(
    "values,bound",
    [
        ([2, 2], 200),
        ([2, 2, 3], 500),
        ([1.5, 1.5, 2.5, 3.5], 400),
        # ties across generations: 4 is both 2*2 and the prime 4
        ([2, 4], 1e4),
        ([1.5, 2.25], 1e3),
        ([2, 4, 8, 3, 9], 1e5),
    ],
)
def test_one_row_order_on_tie_systems(values, bound):
    seq = system(values, bound)
    logs, lams = jump_arrays(seq, bound)
    en = enumerate_integers(seq, bound)
    assert np.any(logs[1:] == logs[:-1])  # the system has value ties
    assert np.array_equal(logs, en.logs)
    assert np.array_equal(lams, en.lambdas)
    # rows follow (log value, dense exponent vector), and stems precede rows
    dense = [tuple(dict(g.exponents).get(i, 0) for i in range(len(seq))) for g in en]
    keys = list(zip(en.logs.tolist(), dense))
    assert keys == sorted(keys)
    assert (en.stem[0], en.index[0], en.exp[0]) == (0, -1, 0)
    assert np.all(en.stem[1:] < np.arange(1, len(en)))


@pytest.mark.parametrize(
    "values,bound",
    [
        ([2, 5], 1e6),  # log(2^6 5^6) lands 1.8e-15 below log 10^6
        ([2, 4, 8, 3, 9], 1e5),
        ([2, 2, 3], 500),
        ([1.5, 1.5, 2.5, 3.5], 400),
        ([1.01, 1.02], 200),
        ([7], 5),
        ([2, 2], 3),  # a tie group that ends on the last row
        ([2, 2, 3, 3], 4),  # two tie groups side by side, the second one last
        ([3, 3, 3], 10),  # groups of 3 and 6 rows, side by side
    ],
)
def test_rows_match_brute_force_row_for_row(values, bound):
    assert_rows_match_oracle(values, bound)


def dense_lex_key(exps):
    """A key on sparse exponent vectors that sorts like the dense vectors.

    Where two dense vectors first differ, at index i, the smaller one holds
    fewer p_i.  In sparse form it has there a pair (i, e) with the smaller e,
    a pair with a larger index, or no pair left: (-index, e) pairs compare so.
    """
    return tuple((-i, e) for i, e in exps)


def assert_rows_match_oracle(values, bound):
    """Every column, row for row, against the recursion sorted by (log, dense vector)."""
    seq = system(values, bound)
    en = enumerate_integers(seq, bound)
    oracle = sorted(
        (lv, dense_lex_key(e), e) for lv, e in brute_force_enumerate(sorted(values), bound)
    )
    assert en.logs.tolist() == [lv for lv, _, _ in oracle]
    assert [g.exponents for g in en] == [e for _, _, e in oracle]
    row_of = {e: r for r, (_, _, e) in enumerate(oracle)}
    for r, (_, _, e) in enumerate(oracle):
        if not e:
            assert (en.stem[r], en.index[r], en.exp[r], en.lambdas[r]) == (0, -1, 0, 0.0)
            continue
        j, top = e[-1]
        assert (en.stem[r], en.exp[r]) == (row_of[e[:-1]], top)  # row = stem * p_j^top
        assert en.stem[r] < r
        assert en.index[r] == j
        assert en.lambdas[r] == (seq.logs[j] if len(e) == 1 else 0.0)
    return seq, en


TIE_VALUES = [2, 3, 4, 8, 9, 1.5, 2.25, 3.375, math.sqrt(2)]


def test_tie_order_on_random_lists(rng):
    # Repeats and powers of one another: ties inside a generation (2 and 2)
    # and across generations (the prime 4 against 2 * 2).
    tied = across = 0
    for _ in range(200):
        values = rng.choice(TIE_VALUES, size=rng.integers(1, 6)).tolist()
        seq, en = assert_rows_match_oracle(values, float(rng.uniform(10.0, 200.0)))
        dense = [tuple(dict(g.exponents).get(i, 0) for i in range(len(seq))) for g in en]
        assert sorted(zip(en.logs.tolist(), dense)) == list(zip(en.logs.tolist(), dense))
        pairs = np.flatnonzero(en.logs[1:] == en.logs[:-1])
        tied += pairs.size
        across += sum(sum(dense[r]) != sum(dense[r + 1]) for r in pairs.tolist())
    assert tied > 1000 and across > 100


def test_repeated_primes_stay_linear():
    # The ordinary primes listed twice put nearly every row in a tie group:
    # the tie order must cost memory per row, not per row and prime.
    assert_rows_match_oracle(trial_division_primes(2000) * 2, 2000)
    seq = system(trial_division_primes(8000) * 2, 8000)
    tracemalloc.start()
    try:
        en = enumerate_integers(seq, 8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(seq), len(en)) == (2014, 73119)
    assert peak < 8 * 24 * len(en)  # 24 bytes of final columns per row


TIE_GEN_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  2, 3, 5, 7, 11, 13, 17, 19]


def test_capacity_error():
    seq = system([2, 3], 10_000)
    with pytest.raises(CapacityError):
        enumerate_integers(seq, 10_000, max_count=10)
    with pytest.raises(CapacityError):
        jump_arrays(seq, 10_000, max_count=10)
    # the cap is exact: N(B) rows fit in max_count = N(B), not in N(B) - 1
    for values, bound in [([2, 5], 1e6), (TIE_GEN_PRIMES, 5000)]:
        seq = system(values, bound)
        total = len(enumerate_integers(seq, bound))
        for enumerate_ in (enumerate_integers, jump_arrays):
            enumerate_(seq, bound, max_count=total)
            with pytest.raises(CapacityError):
                enumerate_(seq, bound, max_count=total - 1)
    with pytest.raises(CapacityError):
        enumerate_integers(system([7], 5), 5, max_count=0)
    # row ids are C int, so a cap past np.iinfo(np.intc).max is refused before any build
    for enumerate_ in (enumerate_integers, jump_arrays):
        with pytest.raises(ValueError, match="C int"):
            enumerate_(system([7], 5), 5, max_count=2**31)


def test_dirichlet_series_approaches_euler_product():
    seq = system([2, 3, 5], 10_000)
    logs, _ = jump_arrays(seq, 10_000)
    partial = np.sum(np.exp(-2.0 * logs))
    product = zeta_euler(seq, 2.0).value.real
    assert abs(partial - product) <= 10.0 / 10_000


def test_lambda_sum_matches_prime_side():
    seq = system([2, 3], 10_000)
    logs, lams = jump_arrays(seq, 10_000)
    lhs = np.sum(lams * np.exp(-2.0 * logs))
    p = seq.values
    rhs = np.sum(np.log(p) * p**-2.0 / (1 - p**-2.0))
    assert abs(lhs - rhs) <= 10.0 * math.log(10_000) / 10_000


def test_write_dump_format(tmp_path):
    seq = system([2, 3], 13)
    en = enumerate_integers(seq, 13)
    path = tmp_path / "dump.tsv"
    write_dump(en, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    value, exps, lam = lines[3].split("\t")
    assert float(value) == pytest.approx(4.0)
    assert exps == "0:2"
    assert float(lam) == pytest.approx(math.log(2))
    assert lines[0].split("\t") == ["1", "", "0"]


def test_write_dump_matches_oracle_across_blocks(tmp_path):
    # Prime indices up to 11, exponents up to 14 and 9,682 rows: the dump
    # crosses a write block, and the block edge splits a tie group.
    values, bound = [2, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31], 30000
    en = enumerate_integers(system(values, bound), bound)
    assert len(en) > DUMP_BLOCK
    assert en.logs[DUMP_BLOCK - 1] == en.logs[DUMP_BLOCK]
    path = tmp_path / "dump.tsv"
    write_dump(en, path)
    got = path.read_text().splitlines()
    want = brute_force_dump(values, bound)
    assert len(got) == len(want) == 9682
    pairs = {pair for g in got for pair in g.split("\t")[1].split(",")}
    assert {"11:1", "0:14"} <= pairs
    for g, w in zip(got, want):
        assert g == w


@pytest.mark.parametrize("block", [1, 5, 64])
def test_write_dump_matches_oracle_at_small_blocks(tmp_path, monkeypatch, rng, block):
    # Small blocks put many block edges inside tie groups; write_dump reads
    # DUMP_BLOCK when it is called.
    monkeypatch.setattr(semigroup, "DUMP_BLOCK", block)
    path = tmp_path / "dump.tsv"
    cases = [([7], 5), ([2, 3], 2), ([2, 2], 1.5)]  # the unit only: B at or below the smallest prime
    for _ in range(30):
        values = sorted(rng.choice(TIE_VALUES, size=rng.integers(1, 6)).tolist())
        cases.append((values, float(rng.uniform(10.0, 300.0))))
    edges = 0
    for values, bound in cases:
        en = enumerate_integers(system(values, bound), bound)
        write_dump(en, path)
        assert path.read_text().splitlines() == brute_force_dump(values, bound), (values, bound)
        edges += int(np.sum(en.logs[block::block] == en.logs[block - 1:-1:block]))
    assert edges > 10  # block edges that split a tie group


def test_write_dump_peak_memory_bounded(tmp_path):
    # The tie-gen input: 348,300 rows, 99.9% of them in tie groups.  The dump
    # builds no string per row, so its traced peak stays under 10 MiB.
    en = enumerate_integers(system(TIE_GEN_PRIMES, 2e5), 2e5)
    assert len(en) == 348_300
    tracemalloc.start()
    try:
        write_dump(en, tmp_path / "dump.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
