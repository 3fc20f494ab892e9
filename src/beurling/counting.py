"""Counting structures: N(x) and psi(x).

A :class:`CountingTable` keeps two sorted lists of jump logs: N's, one per
generalized integer, and psi's, one per prime power with its Lambda weight.
Queries follow the strict convention: N(x) counts n_k < x and psi(x) sums
Lambda(n_k) over n_k < x, so a query landing exactly on a jump excludes it.
The Heaviside convention is H(0) = 0 (characteristic function of the open
half line), hence the normalized error E1(u) = e^{-u} N(e^u) - a for u > 0
and e^{-u} N(e^u) for u <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import semigroup
from .semigroup import DEFAULT_MAX_INTEGERS, EnumerationResult
from .systems import QUERY_EPS, PrimeSequence


def check_density(a) -> None:
    """The declared-density rule: a is None (no density), or finite and >= 0."""
    if a is not None and not 0.0 <= a < math.inf:
        raise ValueError("density a must be finite and non-negative")


def _below(logs: np.ndarray, u) -> np.ndarray:
    """Number of jumps in ``logs`` with log value strictly below u (the strict lookup)."""
    return np.searchsorted(logs, np.asarray(u) - QUERY_EPS, side="left")


@dataclass(frozen=True)
class CountingTable:
    """Immutable jump table answering N and psi queries up to ``bound``."""

    jump_logs: np.ndarray      # N's jumps: sorted log values, with multiplicity
    psi_logs: np.ndarray       # psi's jumps: the prime-power logs, sorted
    lambdas: np.ndarray        # Lambda of each of psi's jumps
    bound: float
    a: float | None = None     # declared density, optional
    cum_lambda: np.ndarray = field(init=False)  # Lambda summed over psi's first k jumps, k = 0..P

    def __post_init__(self):
        check_density(self.a)
        if np.ndim(self.psi_logs) != 1 or np.shape(self.lambdas) != np.shape(self.psi_logs):
            raise ValueError("psi_logs and lambdas must be 1-d arrays of equal length")
        object.__setattr__(self, "cum_lambda", np.concatenate(([0.0], np.cumsum(self.lambdas))))

    @property
    def total_count(self) -> int:
        return len(self.jump_logs)

    @property
    def log_bound(self) -> float:
        return math.log(self.bound)

    def _index_below(self, logs, x) -> np.ndarray:
        """Number of jumps in ``logs`` with log value strictly below log(x)."""
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0):
            raise ValueError("query point must be positive (not NaN)")
        if np.any(x > self.bound):
            raise ValueError(f"query point beyond enumeration bound {self.bound}")
        return _below(logs, np.log(x))

    def count_n(self, x):
        """N(x): number of generalized integers with value strictly below x."""
        k = self._index_below(self.jump_logs, x)
        return k if np.ndim(x) else int(k)

    def psi(self, x):
        """psi(x): sum of Lambda over generalized integers below x."""
        out = self.cum_lambda[self._index_below(self.psi_logs, x)]
        return out if np.ndim(x) else float(out)


def build_table(en: EnumerationResult, primes: PrimeSequence, a: float | None = None) -> CountingTable:
    """Build a table from an enumeration of ``primes`` and psi's list of the same primes."""
    return CountingTable(en.logs, *semigroup._psi_jumps(primes, en.bound), en.bound, a)


def build_table_from_system(
    primes: PrimeSequence,
    bound: float,
    a: float | None = None,
    max_count: int = DEFAULT_MAX_INTEGERS,
) -> CountingTable:
    """Enumerate and tabulate: the jump lists of :func:`semigroup.jump_arrays`."""
    return CountingTable(*semigroup.jump_arrays(primes, bound, max_count), float(bound), a)


def write_csv(path, header: str, rows) -> None:
    """CSV of ``rows`` under ``header``, numbers to 17 significant digits, locale free."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def write_counting_csv(table: CountingTable, path) -> None:
    """CSV of (x, N(x), psi(x), psi(x)/x, E1(log x)) on a 200-point geometric grid.

    E1 is written as nan when the table carries no density.
    """
    xs = np.geomspace(1.0, table.bound, 200)
    xs[-1] = table.bound
    ns = table.count_n(xs)
    ps = table.psi(xs)
    e1 = ns / xs - table.a * (xs > 1.0) if table.a is not None else np.full_like(xs, math.nan)
    write_csv(path, "x,N,psi,psi_over_x,E1_log_x", zip(xs, ns, ps, ps / xs, e1))
