"""Declarative generalized prime systems and their materialization.

A system is described by a :class:`PrimeSystemSpec` (variant plus parameters)
and turned into a concrete sorted :class:`PrimeSequence` below a finite bound
by :func:`materialize`.  All prime values are strictly greater than 1 and the
sequence is non-decreasing; coincident values (multiplicities) are allowed,
but distinct explicit values whose logs lie closer than ``QUERY_EPS`` are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSystemError

VARIANTS = ("explicit-list", "rational-primes", "single-prime", "scaled-rational")

# Jump log values are accumulated sums of prime logs, so a query point that
# conceptually coincides with a jump (e.g. x = 10 against log 2 + log 5) can
# land within a few ulp of it on either side.  The strict "< x" convention
# excludes such near-ties: a jump counts only if its log is below
# log(x) - QUERY_EPS.  The slack dominates the accumulated rounding of the
# enumeration (kept below 1e-9 absolute by the capacity cap), and explicit
# lists whose distinct values lie closer than it in log are refused.
QUERY_EPS = 1e-9


def rational_primes_below(limit: float) -> np.ndarray:
    """Ordinary primes strictly below ``limit``, as a float array (Eratosthenes
    over the odd numbers: ``odd[i]`` stands for 2i + 1)."""
    n = int(math.ceil(limit)) - 1
    if limit <= 2:
        return np.empty(0)
    odd = np.ones((n + 1) // 2, dtype=bool)
    odd[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    odd = np.flatnonzero(odd)  # the i of each odd prime; rebinding frees the mask
    primes = np.empty(odd.size + 1)
    primes[0] = 2.0
    np.multiply(odd, 2.0, out=primes[1:])
    primes[1:] += 1.0
    return primes


@dataclass(frozen=True)
class PrimeSystemSpec:
    """Declarative description of a generalized prime sequence.

    variant: one of ``explicit-list``, ``rational-primes``, ``single-prime``,
    ``scaled-rational``.  ``params`` is variant dependent: the listed prime
    values, nothing, the single prime q > 1, or the scale factor c > 0.
    """

    variant: str
    params: tuple = ()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidSystemError(f"unknown variant {self.variant!r}")
        params = tuple(float(p) for p in self.params)
        if self.variant == "explicit-list":
            if any(not math.isfinite(p) or p <= 1.0 for p in params):
                raise InvalidSystemError("explicit primes must be finite and > 1")
            params = tuple(sorted(params))
            distinct = sorted(set(params))  # exact repeats are multiplicities, and legal
            gaps = [(math.log(b) - math.log(a), a, b) for a, b in zip(distinct, distinct[1:])]
            if gaps and min(gaps)[0] < QUERY_EPS:
                gap, lo, hi = min(gaps)
                raise InvalidSystemError(f"explicit primes {lo!r} and {hi!r} are distinct but their logs lie"
                                         f" {gap:.3g} apart, closer than QUERY_EPS = {QUERY_EPS:g}")
        elif self.variant == "rational-primes":
            if params:
                raise InvalidSystemError("rational-primes takes no parameters")
        elif self.variant == "single-prime":
            if len(params) != 1 or not math.isfinite(params[0]) or params[0] <= 1.0:
                raise InvalidSystemError("single-prime needs one finite q > 1")
        elif self.variant == "scaled-rational":
            if len(params) != 1 or not math.isfinite(params[0]) or params[0] <= 0.0:
                raise InvalidSystemError("scaled-rational needs one finite c > 0")
            if 2.0 * params[0] <= 1.0:
                raise InvalidSystemError("scale factor makes the smallest prime <= 1")
        object.__setattr__(self, "params", params)

    @classmethod
    def explicit(cls, values):
        return cls("explicit-list", tuple(values))

    @classmethod
    def rational(cls):
        return cls("rational-primes")

    @classmethod
    def single(cls, q):
        return cls("single-prime", (q,))

    @classmethod
    def scaled_rational(cls, c):
        return cls("scaled-rational", (c,))


@dataclass(frozen=True)
class PrimeSequence:
    """Sorted generalized primes strictly between 1 and ``bound``.

    ``logs`` holds the natural logs of ``values``, always derived from them
    (all downstream arithmetic is additive in log space).  ``exhaustive`` is
    True when the sequence contains the *entire* system, i.e. there are no
    primes at or above the bound; finite explicit systems materialized with a
    large enough bound set it, and it switches truncation-tail models off.
    """

    values: np.ndarray
    logs: np.ndarray = field(init=False)
    bound: float = math.inf
    exhaustive: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "logs", np.log(values))
        if values.size:
            if np.any(values[1:] < values[:-1]):
                raise InvalidSystemError("prime values must be non-decreasing")
            if not np.all(np.isfinite(values)) or values[0] <= 1.0 or values[-1] >= self.bound:
                raise InvalidSystemError("prime values must be finite and lie strictly in (1, bound)")

    def __len__(self):
        return len(self.values)


def materialize(spec: PrimeSystemSpec, bound: float) -> PrimeSequence:
    """All primes of ``spec`` strictly below ``bound``, sorted, with multiplicity.

    A bound at or below the smallest prime legally yields an empty sequence.
    """
    bound = float(bound)
    if not math.isfinite(bound) or bound <= 1.0:
        raise InvalidSystemError(f"bound must be finite and > 1, got {bound}")
    if spec.variant in ("explicit-list", "single-prime"):  # a single prime is a list of one
        vals = np.array([p for p in spec.params if p < bound])
        return PrimeSequence(vals, bound=bound, exhaustive=len(vals) == len(spec.params))
    c = spec.params[0] if spec.params else 1.0  # rational-primes is scaled-rational with c = 1
    vals = c * rational_primes_below(bound / c + 1)
    vals = vals[(vals > 1.0) & (vals < bound)]  # rebinding frees the unfiltered values
    return PrimeSequence(vals, bound=bound)
