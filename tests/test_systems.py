import math

import numpy as np
import pytest

from beurling import InvalidSystemError, PrimeSequence, PrimeSystemSpec, materialize
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
    assert spec.has_coincident_primes()
    assert materialize(spec, 10).values.tolist() == [2.0, 2.0, 3.0]
    assert not PrimeSystemSpec.rational().has_coincident_primes()


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


def test_invalid_bounds():
    spec = PrimeSystemSpec.rational()
    for bad in (math.inf, math.nan, 1.0, 0.0, -5.0):
        with pytest.raises(InvalidSystemError):
            materialize(spec, bad)


def test_logs_cached():
    seq = materialize(PrimeSystemSpec.explicit([2.0, 3.0]), 10)
    assert np.allclose(seq.logs, np.log(seq.values), rtol=0, atol=0)
