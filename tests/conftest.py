"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's generation-by-generation array
build: primes come from trial division, exponent vectors from depth-first
recursion, and psi from a direct sum over classical prime powers.  The
recursion accumulates log values by multiplying primes in ascending index
order, one at a time, which is float-for-float the same accumulation path as
the library's parent rows, so value comparisons can be exact.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from beurling import PrimeSystemSpec, build_table_from_system, materialize


def trial_division_primes(limit):
    """Ordinary primes strictly below limit, by trial division."""
    out = []
    for n in range(2, math.ceil(limit)):
        if n < limit and all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def brute_force_enumerate(prime_values, bound):
    """Every canonical exponent vector with product < bound, via recursion.

    Returns a list of (log_value, exponents) with exponents as a tuple of
    (index, exponent) pairs, unsorted.
    """
    logs = [math.log(p) for p in prime_values]
    log_bound = math.log(bound)
    out = []

    def rec(start, log_value, exps):
        out.append((log_value, exps))
        for j in range(start, len(logs)):
            child = log_value + logs[j]
            if child >= log_bound:
                break  # logs are sorted ascending
            if exps and exps[-1][0] == j:
                cexps = exps[:-1] + ((j, exps[-1][1] + 1),)
            else:
                cexps = exps + ((j, 1),)
            rec(j, child, cexps)

    rec(0, 0.0, ())
    return out


def brute_force_dump(prime_values, bound):
    """The ``enumeration.csv`` lines of an explicit system, from the recursion.

    ``prime_values`` must be sorted.  Rows are ordered by log value, then by
    the dense exponent vector; a power of p_j has lambda log p_j, every other
    row 0.
    """
    width = len(prime_values)
    rows = sorted(
        (lv, [dict(exps).get(i, 0) for i in range(width)], exps)
        for lv, exps in brute_force_enumerate(prime_values, bound)
    )
    lines = []
    for lv, _, exps in rows:
        lam = math.log(prime_values[exps[0][0]]) if len(exps) == 1 else 0.0
        field = ",".join(f"{i}:{e}" for i, e in exps)
        lines.append(f"{math.exp(lv):.17g}\t{field}\t{lam:.17g}")
    return lines


def classical_psi(x):
    """Chebyshev psi over ordinary prime powers strictly below x."""
    total = 0.0
    for p in trial_division_primes(x):
        pk = p
        while pk < x:
            total += math.log(p)
            pk *= p
    return total


def diamond_partial_naturals(x_int):
    """Closed-form partial of the L1 integral for the naturals with a = 1:
    integral_1^X |N(x) - x| x^{-2} dx = sum_{n<X} (log(1 + 1/n) - 1/(n+1)).
    """
    return math.fsum(
        math.log1p(1.0 / n) - 1.0 / (n + 1.0) for n in range(1, x_int)
    )


def traced_peak(fn):
    """(peak, result): the tracemalloc peak in bytes of one call of ``fn``, and what it returned."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class Timed:
    """Records the wall-clock cost of building the big shared table."""

    def __init__(self, value, seconds):
        self.value = value
        self.seconds = seconds


@pytest.fixture(scope="session")
def rational_1e6():
    """Rational-primes system at bound 10^6 with a = 1, built once."""
    spec = PrimeSystemSpec.rational()
    t0 = time.perf_counter()
    primes = materialize(spec, 1e6)
    table = build_table_from_system(primes, 1e6, 1.0)
    elapsed = time.perf_counter() - t0
    return Timed((primes, table), elapsed)


@pytest.fixture(scope="session")
def rational_1e5():
    """Rational-primes system at bound 10^5 with a = 1, built once."""
    primes = materialize(PrimeSystemSpec.rational(), 1e5)
    return primes, build_table_from_system(primes, 1e5, 1.0)


@pytest.fixture(scope="session")
def rational_1e4():
    spec = PrimeSystemSpec.rational()
    primes = materialize(spec, 1e4)
    return primes, build_table_from_system(primes, 1e4, 1.0)


@pytest.fixture(scope="session")
def single_prime_2_20():
    """Single prime {2} at bound 2^20 with (wrong) density a = 1."""
    primes = materialize(PrimeSystemSpec.single(2.0), 2.0**20)
    return primes, build_table_from_system(primes, 2.0**20, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
