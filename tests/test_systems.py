import math

import numpy as np
import pytest

from beurling import InvalidSystemError, PrimeSequence, PrimeSystemSpec, materialize
from beurling.systems import QUERY_EPS, rational_primes_below
from conftest import trial_division_primes


def test_explicit_list_is_sorted():
    spec = PrimeSystemSpec.explicit([3.0, 2.0])
    assert spec.params == (2.0, 3.0)
    seq = materialize(spec, 10)
    assert seq.values.tolist() == [2.0, 3.0]
    assert seq.exhaustive


def test_single_prime():
    seq = materialize(PrimeSystemSpec.single(2.0), 10)
    assert seq.values.tolist() == [2.0]
    assert seq.exhaustive
    beyond = materialize(PrimeSystemSpec.single(2.0), 2.0)
    assert beyond.values.size == 0 and not beyond.exhaustive


def test_rational_primes_below_30():
    seq = materialize(PrimeSystemSpec.rational(), 30)
    assert seq.values.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("bound", [2, 2.5, 3, 10, 30.5, 97, 1000, 10_000])
def test_rational_matches_trial_division(bound):
    seq = materialize(PrimeSystemSpec.rational(), bound)
    assert seq.values.tolist() == trial_division_primes(bound)


@pytest.mark.parametrize("limit", [2, 2.000001, 3, 3.000001, 4, 9, 9.5, 11.000001, 25, 25.000001, 49, 121.5,
                                   7919, 7919.000001])
def test_odd_sieve_matches_trial_division(limit):
    # the sieve marks odd numbers only, 2 added apart: limits at and just
    # above a prime, and at and above the square of one
    assert rational_primes_below(limit).tolist() == trial_division_primes(limit)


def test_scaled_rational():
    seq = materialize(PrimeSystemSpec.scaled_rational(1.5), 12)
    assert seq.values.tolist() == [3.0, 4.5, 7.5, 10.5]
    assert np.all(seq.values > 1.0) and np.all(seq.values < 12)


def test_prefix_property():
    spec = PrimeSystemSpec.rational()
    small = materialize(spec, 100).values
    large = materialize(spec, 1000).values
    assert large[: len(small)].tolist() == small.tolist()


def test_multiplicity_allowed_and_flagged():
    spec = PrimeSystemSpec.explicit([2.0, 2.0, 3.0])
    assert materialize(spec, 10).values.tolist() == [2.0, 2.0, 3.0]


def test_near_coincident_explicit_primes_rejected():
    # distinct values whose logs lie closer than QUERY_EPS would tie under the
    # strict lookup; the message names the closest pair and its log gap
    with pytest.raises(InvalidSystemError, match=r"2\.0 and 2\.0000000001 .* 5e-11 apart"):
        PrimeSystemSpec.explicit([3.0, 2.0000000001, 7.0, 2.0, 3.0 * (1 + 5e-10)])
    with pytest.raises(InvalidSystemError, match="2.22e-16 apart"):  # one ulp apart
        PrimeSystemSpec.explicit([2.0, math.nextafter(2.0, 3.0)])
    # exact repeats are multiplicities, and a gap of QUERY_EPS itself is far enough
    assert PrimeSystemSpec.explicit([2, 3, 2, 3, 3]).params == (2.0, 2.0, 3.0, 3.0, 3.0)
    assert len(PrimeSystemSpec.explicit([2.0, 2.0 * math.exp(2 * QUERY_EPS)]).params) == 2


def test_invalid_specs():
    with pytest.raises(InvalidSystemError):
        PrimeSystemSpec.explicit([1.0, 2.0])  # prime <= 1
    with pytest.raises(InvalidSystemError):
        PrimeSystemSpec.single(0.5)
    with pytest.raises(InvalidSystemError):
        PrimeSystemSpec.scaled_rational(0.4)  # smallest scaled prime <= 1
    with pytest.raises(InvalidSystemError):
        PrimeSystemSpec("no-such-variant")
    with pytest.raises(InvalidSystemError):
        PrimeSystemSpec("rational-primes", (2.0,))


@pytest.mark.parametrize("values, bound", [
    ([2.0, math.nan], 10.0), ([math.nan, 2.0], 10.0), ([2.0, math.inf], math.inf),
], ids=["nan-last", "nan-first", "inf"])
def test_non_finite_primes_rejected(values, bound):
    with pytest.raises(InvalidSystemError):
        PrimeSequence(np.array(values), bound=bound)


def test_decreasing_primes_rejected():
    with pytest.raises(InvalidSystemError, match="non-decreasing"):
        PrimeSequence(np.array([3.0, 2.0]), bound=10.0)


def test_no_rational_primes_below_two():
    for limit in (2, 1.5, 1):
        assert rational_primes_below(limit).size == 0
    # a scale past the bound leaves no primes: the sieve's limit B/c + 1 is at most 2
    assert len(materialize(PrimeSystemSpec.scaled_rational(10.0), 5.0)) == 0


def test_invalid_bounds():
    spec = PrimeSystemSpec.rational()
    for bad in (math.inf, math.nan, 1.0, 0.0, -5.0):
        with pytest.raises(InvalidSystemError):
            materialize(spec, bad)


def test_logs_cached():
    seq = materialize(PrimeSystemSpec.explicit([2.0, 3.0]), 10)
    assert np.allclose(seq.logs, np.log(seq.values), rtol=0, atol=0)
