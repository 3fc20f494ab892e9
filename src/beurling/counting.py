"""Counting structures: N(x), psi(x) and their normalized forms.

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


def _below(logs: np.ndarray, u) -> np.ndarray:
    """Number of jumps in ``logs`` with log value strictly below u (the strict lookup)."""
    return np.searchsorted(logs, np.asarray(u) - QUERY_EPS, side="left")


@dataclass(frozen=True)
class CountingTable:
    """Immutable jump table answering N and psi queries up to ``bound``."""

    jump_logs: np.ndarray      # N's jumps: sorted log values, with multiplicity
    lambdas: np.ndarray        # Lambda of each jump; __post_init__ keeps psi's (Lambda > 0)
    bound: float
    a: float | None = None     # declared density, optional
    psi_logs: np.ndarray = field(init=False)    # psi's jumps: the prime-power logs, sorted
    cum_lambda: np.ndarray = field(init=False)  # Lambda summed over psi's first k jumps, k = 0..P

    def __post_init__(self):
        if self.a is not None and not 0.0 <= self.a < math.inf:
            raise ValueError("density a must be finite and non-negative")
        power = self.lambdas > 0
        object.__setattr__(self, "psi_logs", self.jump_logs[power])
        object.__setattr__(self, "lambdas", self.lambdas[power])
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

    def normalized_error(self, u):
        """E1(u) = e^{-u} N(e^u) - a H(u), with H(0) = 0."""
        if self.a is None:
            raise ValueError("normalized_error requires a declared density a")
        u = np.asarray(u, dtype=float)
        if not np.all(u <= self.log_bound):
            raise ValueError(f"e^u beyond enumeration bound {self.bound} (or u is NaN)")
        count = _below(self.jump_logs, u)
        # e^{-u} overflows below u = -709; the count there is 0 (the unit sits at u = 0).
        out = np.exp(-u, out=np.zeros_like(u), where=count > 0) * count - self.a * (u > 0)
        return out if out.ndim else float(out)

    def normalized_psi(self, u):
        """T(u) = e^{-u} psi(e^u), for 0 <= u <= log(bound)."""
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0) & (u <= self.log_bound)):
            raise ValueError("u must lie in [0, log bound] (not NaN)")
        out = np.exp(-u) * self.cum_lambda[_below(self.psi_logs, u)]
        return out if out.ndim else float(out)


def build_table(en: EnumerationResult, a: float | None = None) -> CountingTable:
    """Build a table from the columns of an enumeration."""
    return CountingTable(en.logs, en.lambdas, en.bound, a)


def build_table_from_system(
    primes: PrimeSequence,
    bound: float,
    a: float | None = None,
    max_count: int = DEFAULT_MAX_INTEGERS,
) -> CountingTable:
    """Enumerate and tabulate: the log and Lambda columns of the generation build."""
    logs, lams = semigroup.jump_arrays(primes, bound, max_count)
    return CountingTable(logs, lams, float(bound), a)


def estimate_density(table: CountingTable):
    """Estimate a-hat = N(B)/B with a last-decade drift diagnostic.

    Returns ``(a_hat, drift)`` where drift is the maximum deviation of N(x)/x
    from a-hat over a 32-point geometric grid spanning the last decade below the bound.
    Diagnostic only; hypothesis checks never substitute it for a declared a.
    """
    b = table.bound
    a_hat = table.total_count / b
    lo = min(max(2.0, b / 10.0), b)
    xs = np.geomspace(lo, b, 32)
    ratios = table.count_n(xs) / xs
    return a_hat, float(np.max(np.abs(ratios - a_hat)))


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
