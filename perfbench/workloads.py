"""Benchmark workloads: seeded CLI inputs and the independent oracles that check them.

Each workload is one ``beurling`` CLI invocation.  A seed selects one of
``VARIANTS`` input variants (``seed % VARIANTS``); variant 0 is the default
and reproduces the sizes stated in ``perfbench/README.md``.  The variants are a
fixed table rather than free random draws because every float column is
compared against a reference produced once from the seed commit, and that
reference must exist for every input the benchmark can generate.  Variants
keep the amount of work within about one percent of the default, so that the
spread between seeds stays small beside the bounds in ``BENCHMARK.json``.

Sizes: ``full`` is the measured workload; ``small`` is a reduced input used
only by ``selftest.py``.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

VARIANTS = 4
NAMES = ("rational-check", "tie-gen")

RATIONAL_INI = """\
# Full diagnostic run on the ordinary primes up to 10^6.
#   beurling check --config demos/configs/rational_full.ini
[system]
variant = rational-primes
bound = {bound}
density_a = 1.0

[run]
checks = l1, zhang, little-o, chebyshev, identity, boundary
output_dir = out/rational

[chebyshev]
window_lo = 1e3
window_hi = {bound}
"""
# Variant 0 is demos/configs/rational_full.ini verbatim (B = 10^6); the others
# move only the bound, by at most 0.4 percent.
RATIONAL_BOUNDS = {"full": ("1e6", "1002000", "998000", "1004000"), "small": ("2e4",)}

PRIMES_BELOW_60 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
# (primes listed twice, bound): each bound keeps N(B) within 0.2 percent of the
# default's 348,258 integers below 2e5.
TIE_VARIANTS = (
    ((2, 3, 5, 7, 11, 13, 17, 19), 200000),
    ((2, 3, 5, 7, 11, 13, 17, 23), 204000),
    ((2, 3, 5, 7, 11, 13, 19, 23), 207000),
    ((2, 3, 5, 7, 11, 17, 19, 23), 217000),
)
TIE_SMALL_BOUND = 5000


@dataclass(frozen=True)
class Job:
    """One CLI invocation: arguments after ``beurling``, input files, and the bound B."""

    workload: str
    variant: int
    size: str
    argv: tuple
    bound: float
    files: dict = field(default_factory=dict)


def variant_of(seed: int, size: str = "full") -> int:
    return seed % len(variants(size))


def make_job(workload: str, variant: int, size: str = "full") -> Job:
    if workload == "rational-check":
        bound = RATIONAL_BOUNDS[size][variant]
        return Job(workload, variant, size,
                   ("check", "--config", "rational.ini", "--out", "out"),
                   float(bound), {"rational.ini": RATIONAL_INI.format(bound=bound)})
    if workload == "tie-gen":
        dups, bound = TIE_VARIANTS[variant]
        if size == "small":
            bound = TIE_SMALL_BOUND
        params = ",".join(str(p) for p in PRIMES_BELOW_60 + dups)
        return Job(workload, variant, size,
                   ("gen", "--variant", "explicit-list", "--params", params,
                    "--bound", str(bound), "--dump", "--out", "out"), float(bound))
    raise ValueError(f"unknown workload {workload!r}")


def variants(size: str) -> range:
    return range(VARIANTS if size == "full" else 1)


# --- oracles: exact arithmetic, independent of the beurling package ---------


def rational_count(x: float) -> int:
    """N(x) for the ordinary primes: the positive integers strictly below x."""
    return max(math.ceil(x) - 1, 0)


class TieOracle:
    """Exact enumeration of an explicit system of integer primes with repeats.

    ``rows`` holds (value, dense exponent vector as bytes, exponent field,
    lambda) sorted by value and then by the dense lexicographic order of the
    exponent vector, which is the order the enumerator documents for value
    ties.  The exponent field and lambda are written as ``enumeration.csv``
    writes them: ``i:e`` pairs with ascending prime index, and log p for a
    power of p, else 0.
    """

    def __init__(self, primes, bound: float):
        self.primes = sorted(primes)
        n = len(self.primes)
        logs = [math.log(p) for p in self.primes]
        exps = [0] * n
        rows = []

        # The field of a node is ``head`` followed by ``j:e`` for its largest
        # prime index j; a child either raises e or appends a new index.
        def grow(start: int, value: int, head: str, j_last: int) -> None:
            e_last = exps[j_last] if j_last >= 0 else 0
            field_ = f"{head}{j_last}:{e_last}" if j_last >= 0 else ""
            lam = logs[j_last] if j_last >= 0 and not head else 0.0
            rows.append((value, bytes(exps), field_, lam))
            for j in range(start, n):
                child = value * self.primes[j]
                if child >= bound:
                    break
                exps[j] += 1
                grow(j, child, head if j == j_last else (field_ + "," if field_ else ""), j)
                exps[j] -= 1

        grow(0, 1, "", -1)
        rows.sort()
        self.rows = rows
        self.values = [r[0] for r in rows]

    def count(self, x: float) -> int:
        return bisect.bisect_left(self.values, x)

    @functools.cached_property
    def dump_columns(self):
        """Values, exponent fields and lambdas, in dump order."""
        return (np.array(self.values, dtype=float), [r[2] for r in self.rows],
                np.array([r[3] for r in self.rows]))


class Oracle:
    """N(x) and N(B) for one job, from exact arithmetic."""

    def __init__(self, job: Job):
        self.job = job
        self.tie = None
        if job.workload == "tie-gen":
            dups, _ = TIE_VARIANTS[job.variant]
            self.tie = TieOracle(PRIMES_BELOW_60 + dups, job.bound)

    def count(self, x: float) -> int:
        if self.job.workload == "rational-check":
            return rational_count(x)
        if self.tie is not None:
            return self.tie.count(x)
        raise ValueError(f"no N(x) oracle for {self.job.workload}")

    def integers(self) -> int:
        """N(B) at the job's bound, the base of ``integers_per_s``."""
        return self.count(self.job.bound)
