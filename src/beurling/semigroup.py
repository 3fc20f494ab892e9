"""Enumeration of generalized integers (the free commutative monoid on P).

One min-heap, seeded with the unit, produces every generalized integer below
the bound: popping row n pushes n * p_j for every prime index j >= the largest
prime index of n whose product stays below the bound.  Each exponent vector is
produced exactly once, in non-decreasing order of value; coincident prime
values at distinct indices yield distinct generalized integers (multiset
semantics).

The heap records three typed columns per row and nothing else: the log value,
the parent row (the row it was pushed from; -1 for the unit) and the largest
prime index.  Everything else is derived from them:

* the von Mangoldt weight, by following parent pointers to the row's smallest
  prime index: a row is a prime power exactly when that equals its largest;
* the order inside groups of exactly equal log values, dense-lexicographic on
  the exponent vectors (rebuilt for tied rows only, so systems without ties
  skip this step);
* the sparse exponent vectors, rebuilt parent-to-child when iterating an
  :class:`EnumerationResult` or writing a dump.

:func:`enumerate_integers` returns all columns and :func:`jump_arrays` only
(log value, Lambda weight); both come from the same heap in the same row order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .systems import PrimeSequence

DEFAULT_MAX_INTEGERS = 10**8


class GenInteger(NamedTuple):
    """One row of an enumeration: log-value plus sparse exponent vector.

    ``exponents`` is a tuple of (prime_index, exponent) pairs with ascending
    indices and positive exponents; the unit is the empty tuple with
    log_value 0.
    """

    log_value: float
    exponents: tuple

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def max_prime_index(self) -> int:
        return self.exponents[-1][0] if self.exponents else -1

    @property
    def prime_power(self) -> bool:
        return len(self.exponents) == 1


@dataclass(frozen=True)
class EnumerationResult:
    """All generalized integers below ``bound`` as row columns, sorted by log value.

    Row 0 is the unit.  ``parent[r]`` is the row that r was generated from
    (r divided by its largest prime), so it always precedes r; ``index[r]`` is
    that largest prime index.  Both are -1 for the unit.  Iterating yields
    :class:`GenInteger` rows.
    """

    logs: np.ndarray     # float64 log values, non-decreasing
    lambdas: np.ndarray  # float64 von Mangoldt weights
    parent: np.ndarray   # C int (int32)
    index: np.ndarray    # C int (int32)
    bound: float

    def __len__(self):
        return len(self.logs)

    def __iter__(self):
        exps = [()] * len(self)
        for r, (lv, p, j) in enumerate(zip(self.logs.tolist(), self.parent.tolist(),
                                           self.index.tolist())):
            if p >= 0:
                e = exps[p]
                if e and e[-1][0] == j:
                    exps[r] = e[:-1] + ((j, e[-1][1] + 1),)
                else:
                    exps[r] = e + ((j, 1),)
            yield GenInteger(lv, exps[r])


def _enumerate(primes: PrimeSequence, bound: float, max_count: int) -> EnumerationResult:
    """The one heap, plus the columns derived from it."""
    if not math.isfinite(bound) or bound <= 1.0:
        raise ValueError(f"bound must be finite and > 1, got {bound}")
    if bound > primes.bound and not primes.exhaustive:
        raise ValueError(f"bound {bound} exceeds the bound {primes.bound} the primes were materialized to")
    logs = primes.logs.tolist()
    n = len(logs)
    log_bound = math.log(bound)
    heap = [(0.0, -1, -1)]  # (log value, largest prime index, parent row)
    out_logs, out_parent, out_index = array("d"), array("i"), array("i")
    while heap:
        lv, j, p = heappop(heap)
        row = len(out_logs)
        if row >= max_count:
            raise CapacityError(f"enumeration exceeded max_count={max_count}")
        out_logs.append(lv)
        out_parent.append(p)
        out_index.append(j)
        for k in range(j if j > 0 else 0, n):
            clv = lv + logs[k]
            if clv >= log_bound:
                break  # logs are non-decreasing
            heappush(heap, (clv, k, row))
    row_logs = np.frombuffer(out_logs)
    parent = np.frombuffer(out_parent, dtype=np.intc)
    index = np.frombuffer(out_index, dtype=np.intc)

    # Pointer jumping: top[r] becomes the ancestor just below the unit, whose
    # index is the smallest prime index of r.
    rows = np.arange(len(parent), dtype=np.intc)
    top = np.where(parent > 0, parent, rows)
    while True:
        nxt = top[top]
        if np.array_equal(nxt, top):
            break
        top = nxt
    power = index[top] == index
    power[0] = False
    lambdas = np.zeros(len(parent))
    lambdas[power] = primes.logs[index[power]]

    tied = np.flatnonzero(row_logs[1:] == row_logs[:-1])
    if tied.size:
        tied = np.union1d(tied, tied + 1)
        dense = _dense_exponents(tied, parent, index, primes, log_bound)
        order = rows.copy()
        order[tied] = tied[np.lexsort((*dense.T[::-1], row_logs[tied]))]
        inverse = np.empty_like(order)
        inverse[order] = rows
        parent = inverse[parent[order]]
        parent[0] = -1
        index = index[order]
        lambdas = lambdas[order]
    return EnumerationResult(row_logs, lambdas, parent, index, float(bound))


def _dense_exponents(rows, parent, index, primes: PrimeSequence, log_bound: float):
    """Dense exponent vectors of ``rows``, counted by walking up parent pointers."""
    max_exponent = int(log_bound / primes.logs[0])
    dense = np.zeros((len(rows), len(primes)), dtype=np.min_scalar_type(max_exponent))
    at, k = rows, np.arange(len(rows))
    while at.size:
        dense[k, index[at]] += 1
        at = parent[at]
        live = at > 0
        at, k = at[live], k[live]
    return dense


def enumerate_integers(
    primes: PrimeSequence, bound: float, max_count: int = DEFAULT_MAX_INTEGERS
) -> EnumerationResult:
    """Every generalized integer with value < bound, sorted ascending.

    Row 0 is the unit.  Ties in value are ordered by lexicographically smaller
    dense exponent vector.  Raises :class:`CapacityError` past ``max_count``.
    """
    return _enumerate(primes, bound, max_count)


def jump_arrays(
    primes: PrimeSequence, bound: float, max_count: int = DEFAULT_MAX_INTEGERS
):
    """Sorted log values and Lambda weights of all generalized integers < bound.

    The ``logs`` and ``lambdas`` columns of :func:`enumerate_integers`, in the
    same row order.  Returns ``(logs, lambdas)`` as float arrays of equal length.
    """
    en = _enumerate(primes, bound, max_count)
    return en.logs, en.lambdas


def write_dump(en, path) -> None:
    """Raw text dump, one record per integer: value<TAB>exponents<TAB>lambda.

    The exponent vector is serialized as ``i:a,j:b`` pairs with ascending
    prime index; the unit has an empty exponent field.  Fields are built
    parent-to-child: a row either raises its parent's last exponent or appends
    a new ``j:1`` pair to its parent's field.
    """
    index = en.index.tolist()
    heads = [""] * len(en)  # each row's field before its last pair
    lasts = [0] * len(en)   # the exponent of that last pair
    rows = zip(en.logs.tolist(), en.parent.tolist(), index, en.lambdas.tolist())
    with open(path, "w") as fh:
        for r, (lv, p, j, lam) in enumerate(rows):
            field = ""
            if p >= 0:
                if p and index[p] != j:
                    heads[r], lasts[r] = f"{heads[p]}{index[p]}:{lasts[p]},", 1
                else:
                    heads[r], lasts[r] = heads[p], lasts[p] + 1
                field = f"{heads[r]}{j}:{lasts[r]}"
            fh.write(f"{math.exp(lv):.17g}\t{field}\t{lam:.17g}\n")
