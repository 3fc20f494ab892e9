"""Enumeration of generalized integers (the free commutative monoid on P).

The integers below the bound are built one prime factor at a time.
Generation k holds the rows with k prime factors, counted with multiplicity;
the children of a row n with largest prime index i are n * p_j for every
j >= i whose product stays below the bound, one contiguous run of j per row.
Each exponent vector is built exactly once, and coincident prime values at
distinct indices yield distinct generalized integers (multiset semantics).

Each row is built with four typed columns: the log value (its parent's log
plus log p_j, always summed in that order), the parent row (the row divided
by its largest prime), that largest prime index, and the von Mangoldt weight
(a row is a prime power exactly when its parent is the unit or a power of
the same prime).  One sort by log value orders the rows.  Rows
of exactly equal log value are put in dense-lexicographic order of their
exponent vectors by one key: descending preorder rank in the build tree,
whose children are visited by ascending index.  Proof: a row's path from the
unit has indices j_1 <= ... <= j_k; of two rows with equal value neither path
extends the other, which would raise the value; where they first differ, the
row with the smaller index holds more of that prime, so it is the dense-lex
larger and the earlier in preorder.  The tied rows are re-sorted by one
integer argsort on ``group * rows - rank`` (``group`` numbers the tie groups
by ascending value); ranks are unique and below ``rows``, and ``rows`` is at
most ``MAX_ROWS`` < 2**31, so the key orders by group first and fits int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .systems import PrimeSequence

DEFAULT_MAX_INTEGERS = 10**8
DUMP_BLOCK = 8192  # rows per write_dump block
MAX_ROWS = int(np.iinfo(np.intc).max)  # row ids are C int


class GenInteger(NamedTuple):
    """One row of an enumeration: log-value plus sparse exponent vector, a tuple
    of (prime_index, exponent) pairs with ascending indices and positive
    exponents (the empty tuple, with log_value 0, for the unit)."""

    log_value: float
    exponents: tuple

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def prime_power(self) -> bool:
        return len(self.exponents) == 1


@dataclass(frozen=True)
class EnumerationResult:
    """All generalized integers below ``bound`` as row columns, sorted by log value.

    Row 0 is the unit.  Row r is ``stem[r]`` times p_j^e with j = ``index[r]``,
    its largest prime index, and e = ``exp[r]``: the stem is r with every
    factor p_j divided out, so it precedes r, and r's (index, exponent) pairs
    are its stem's followed by (j, e).  The unit reads (0, -1, 0).  Iterating
    yields :class:`GenInteger` rows.
    """

    logs: np.ndarray     # float64 log values, non-decreasing
    lambdas: np.ndarray  # float64 von Mangoldt weights
    stem: np.ndarray     # C int (int32)
    index: np.ndarray    # C int (int32)
    exp: np.ndarray      # C int (int32)
    bound: float

    def __len__(self):
        return len(self.logs)

    def __iter__(self):
        exps = [()] * len(self)
        for r, (lv, s, j, e) in enumerate(zip(self.logs.tolist(), self.stem.tolist(),
                                              self.index.tolist(), self.exp.tolist())):
            if r:
                exps[r] = exps[s] + ((j, e),)
            yield GenInteger(lv, exps[r])


def _enumerate(primes: PrimeSequence, bound: float, max_count: int, full: bool = True):
    """Build the rows by generation, sort them once; without ``full`` only (logs, lambdas)."""
    if not math.isfinite(bound) or bound <= 1.0:
        raise ValueError(f"bound must be finite and > 1, got {bound}")
    if bound > primes.bound and not primes.exhaustive:
        raise ValueError(f"bound {bound} exceeds the bound {primes.bound} the primes were materialized to")
    if max_count > MAX_ROWS:
        raise ValueError(f"max_count must be at most {MAX_ROWS} (row ids are C int), got {max_count}")
    logs = primes.logs
    log_bound = math.log(bound)
    # Generation k: the rows with k prime factors, as (log, parent, index, Lambda)
    # columns; row ids count in build order, so the unit is row 0.
    gen = (np.zeros(1), np.full(1, -1, np.intc), np.full(1, -1, np.intc), np.zeros(1))
    columns, rows = [], 0
    while True:
        columns.append(gen)
        lv, _, index, lam = gen
        first, rows = rows, rows + len(lv)
        # Children p_j for j from the row's largest index while the sum stays
        # below the bound: one run per row, since logs are non-decreasing.
        # fl(log B - lv) can admit a j whose sum rounds up to log B; step back.
        lo = np.maximum(index, 0)
        hi = np.searchsorted(logs, log_bound - lv, side="right")
        while True:
            live = np.flatnonzero(hi > lo)
            over = live[lv[live] + logs[hi[live] - 1] >= log_bound]
            if not over.size:
                break
            hi[over] -= 1
        counts = np.maximum(hi - lo, 0)
        size = int(counts.sum())
        if rows + size > max_count:
            raise CapacityError(f"enumeration exceeded max_count={max_count}")
        if not size:
            break
        parent = np.repeat(np.arange(first, rows, dtype=np.intc), counts)
        j = np.arange(size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        step = logs[j]
        # A prime power's parent is the unit, or a power of the same prime.
        power = (parent == 0) | ((np.repeat(lam, counts) > 0) & (j == np.repeat(index, counts)))
        gen = (np.repeat(lv, counts) + step, parent, j.astype(np.intc), np.where(power, step, 0.0))
    columns = [list(c) for c in zip(*columns)]  # a pop frees one column's generations
    row_logs, lambdas = np.concatenate(columns.pop(0)), np.concatenate(columns.pop())
    order = np.argsort(row_logs)
    row_logs = row_logs[order]
    tied = np.flatnonzero(row_logs[1:] == row_logs[:-1])
    if tied.size:
        # Mark both rows of each equal pair: every member of a tie group.
        tie = np.zeros(rows, dtype=bool)
        tie[tied] = tie[tied + 1] = True
        tied = np.flatnonzero(tie)
        del tie
        # Ascending dense-lexicographic order is descending preorder rank: one
        # int64 key, group * rows - rank (see the module docstring), built in
        # place, where group counts the value changes along the tied rows (in
        # place too: a cumsum of bools would cast a second tied-length copy).
        key = _preorder(columns[0])[order[tied]].astype(np.int64)
        np.negative(key, out=key)
        group = row_logs[tied]
        group = group[1:] != group[:-1]  # rebinding frees the gathered logs
        group = group.astype(np.int64)
        np.cumsum(group, out=group)
        group *= rows
        key[1:] += group
        del group
        # Rebinding frees the key before the gather, one tied-length array fewer;
        # the gathers below need none of these.
        key = np.argsort(key)
        order[tied] = order[tied][key]
        del key, tied
    lambdas = lambdas[order]
    if not full:
        return row_logs, lambdas
    index = np.concatenate(columns.pop())[order]
    inverse = np.empty(rows, dtype=np.intc)
    inverse[order] = np.arange(rows, dtype=np.intc)
    parent = inverse[np.concatenate(columns.pop())[order]]
    # Stems: walk the parents while the index stays equal, at most the largest
    # exponent passes.  The unit is its own stem, with exponent 0, and never walks.
    stem, exp = parent.copy(), np.ones(rows, dtype=np.intc)
    stem[0] = exp[0] = 0
    live = np.flatnonzero(index[stem[1:]] == index[1:]) + 1
    while live.size:
        stem[live] = parent[stem[live]]
        exp[live] += 1
        live = live[index[stem[live]] == index[live]]
    return EnumerationResult(row_logs, lambdas, stem, index, exp, float(bound))


def _preorder(parents):
    """Preorder rank (exact in float64) of every row, from each generation's parents:
    a row's rank less the subtrees before it in its generation is the same
    offset of its parent, plus one, plus the parent's place in its generation."""
    firsts = np.cumsum([0] + [len(p) for p in parents])
    rank = np.ones(firsts[-1])
    gens = np.split(rank, firsts[1:-1])  # one view per generation
    for k in range(len(parents) - 1, 0, -1):  # subtree sizes, bottom-up
        gens[k - 1] += np.bincount(parents[k] - firsts[k - 1], gens[k], len(gens[k - 1]))
    rank[0] = offset = 0.0
    for k in range(1, len(parents)):  # sizes to ranks, top-down
        offset = (offset + 1 + np.arange(np.size(offset)))[parents[k] - firsts[k - 1]]
        gens[k][:] = offset + np.cumsum(gens[k]) - gens[k]
    return rank


def enumerate_integers(
    primes: PrimeSequence, bound: float, max_count: int = DEFAULT_MAX_INTEGERS
) -> EnumerationResult:
    """Every generalized integer with value < bound, sorted ascending.

    Row 0 is the unit.  Ties in value are ordered by lexicographically smaller
    dense exponent vector, that is by descending preorder rank in the build
    tree.  Raises :class:`CapacityError` past ``max_count``, and ``ValueError``
    for a ``max_count`` above ``MAX_ROWS``.
    """
    return _enumerate(primes, bound, max_count)


def jump_arrays(
    primes: PrimeSequence, bound: float, max_count: int = DEFAULT_MAX_INTEGERS
):
    """Sorted log values and Lambda weights of all generalized integers < bound.

    The ``logs`` and ``lambdas`` columns of :func:`enumerate_integers`, in the
    same row order.  Returns ``(logs, lambdas)`` as float arrays of equal length.
    """
    return _enumerate(primes, bound, max_count, full=False)


def write_dump(en, path) -> None:
    """Raw text dump, one record per integer: value<TAB>exponents<TAB>lambda.

    The exponent field is ``i:a,j:b`` pairs by ascending prime index (empty for
    the unit): row r's field is its stem's field, then ``index[r]:exp[r]``,
    with a comma before it unless the stem is the unit.
    Every piece of a record but its value comes from one string table built
    once: the lambda strings (0 and the Lambda of each prime row, since a prime
    power's Lambda is its prime's step log p_j) and every ``j:e`` pair with
    and without its comma (no exponent of p_j exceeds its count of prime-power
    rows).  Each ``DUMP_BLOCK`` rows walk their stems down to the unit into a
    matrix of piece ids, one column per step, padded with the empty piece; the
    pads are dropped, each row's value string goes in its first slot, and one
    ``join`` writes the block.  One value string is formatted per run of equal
    log values in a block, with ``math.exp``: ``np.exp`` can differ by an ulp,
    which ``%.17g`` shows.  No string is built per row.
    """
    stem, token = en.stem, en.exp.copy()  # piece ids, from a copy: the result keeps its column
    primes = np.flatnonzero((stem == 0) & (token == 1))
    primes = primes[np.argsort(en.index[primes])]  # the row of p_j at j
    counts = np.bincount(en.index[en.lambdas > 0], minlength=len(primes))
    # Piece ids: 0 the empty string, 1 the lambda 0.0, 2 + j prime j's Lambda,
    # then the pairs j:1, j:2, ... of each j in turn, then the same with a comma.
    pairs = [f"{j}:{e}" for j, k in enumerate(counts.tolist()) for e in range(1, k + 1)]
    pieces = [""] + [f"\t{lam:.17g}\n" for lam in [0.0] + en.lambdas[primes].tolist()]
    pieces = np.array(pieces + pairs + ["," + pair for pair in pairs], dtype=object)
    offset = (1 + len(primes) + np.cumsum(counts) - counts).astype(np.intc)  # j:1's id less one
    token[1:] += offset[en.index[1:]]  # exponent to pair id; the unit's stays 0
    token[stem > 0] += len(pairs)  # a comma after the stem's field
    with open(path, "w") as fh:
        for start in range(0, len(en), DUMP_BLOCK):
            cut = slice(start, start + DUMP_BLOCK)
            lam = np.where(en.lambdas[cut] > 0, 2 + en.index[cut], 1)
            rows = np.arange(start, start + len(lam))
            steps = []  # from the row's own pair down to its lowest prime's
            while rows.any():
                steps.append(token[rows])
                rows = stem[rows]
            # The first column is the value's slot: any nonzero id holds it.
            ids = np.stack([lam] + steps[::-1] + [lam], axis=1)
            keep = ids != 0
            width = keep.sum(axis=1)
            out = pieces[ids[keep]]
            logs = en.logs[cut]
            runs = np.flatnonzero(np.r_[True, logs[1:] != logs[:-1]])
            values = np.array([f"{math.exp(lv):.17g}\t" for lv in logs[runs].tolist()], dtype=object)
            out[np.cumsum(width) - width] = np.repeat(values, np.diff(np.r_[runs, len(logs)]))
            fh.write("".join(out.tolist()))
