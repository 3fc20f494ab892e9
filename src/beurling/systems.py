"""Declarative generalized prime systems and their materialization.

A system is described by a :class:`PrimeSystemSpec` (variant plus parameters)
and turned into a concrete sorted :class:`PrimeSequence` below a finite bound
by :func:`materialize`.  All prime values are strictly greater than 1 and the
sequence is non-decreasing; coincident values (multiplicities) are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSystemError

VARIANTS = ("explicit-list", "rational-primes", "single-prime", "scaled-rational")


def rational_primes_below(limit: float) -> np.ndarray:
    """Ordinary primes strictly below ``limit``, as a float array (Eratosthenes)."""
    n = int(math.ceil(limit)) - 1
    if limit <= 2:
        return np.empty(0)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(float)


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

    def has_coincident_primes(self) -> bool:
        """True when the declared list contains a repeated prime value."""
        if self.variant != "explicit-list":
            return False
        return any(a == b for a, b in zip(self.params, self.params[1:]))


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
            if np.any(np.diff(values) < 0):
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
    return PrimeSequence(vals[(vals > 1.0) & (vals < bound)], bound=bound)
