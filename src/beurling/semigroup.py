"""Enumeration of generalized integers (the free commutative monoid on P).

The integers below the bound are built one prime factor at a time.
Generation k holds the rows with k prime factors, counted with multiplicity;
the children of a row n with largest prime index i are n * p_j for every
j >= i whose product stays below the bound, one contiguous run of j per row.
Each exponent vector is built exactly once, and coincident prime values at
distinct indices yield distinct generalized integers (multiset semantics).

:func:`_generations` yields one buffer that it fills with every row's log
(its parent's log plus log p_j, summed in that order), in generation order,
then each generation's largest prime indices and child counts, whose runs in
row order make the next generation.  :func:`jump_arrays` sorts the buffer in
place; :func:`enumerate_integers` argsorts it first (C int row ids), then
sorts it in place and scatters the indices, stems and exponents to their
sorted places, ``BLOCK`` rows or parents at a time.  ``BLOCK`` sizes every
memory-bounded loop here and in ``hypothesis``, and no value depends on it.
The cut :func:`_fits`, shared with the levels (:func:`_levels`) of psi's list
(:func:`_psi_jumps`) and of ``zeta``'s Euler side, keeps psi's jumps equal to
their rows' logs bit for bit.  One sort by log value orders the rows.
Rows of exactly equal log value are put in dense-lexicographic order of their
exponent vectors by one key: descending preorder rank in the build tree, whose
children are visited by ascending index.  Proof: a row's path from the unit has
indices j_1 <= ... <= j_k; of two rows with equal value neither path extends
the other, which would raise the value; where they first differ, the row with
the smaller index holds more of that prime, so it is the dense-lex larger and
the earlier in preorder.  Only when the sorted logs hold a tie are the ranks
made, as C int in one array (:func:`_preorder`), and :func:`_tie_order`
reorders the rows about ``BLOCK`` at a time, each block cut at the end of the
tie group of its last row, so no group is split, and a block with no tie
skipped.  A block is sorted on the int64 key ``group * rows - rank``
(``group`` counts the value changes in the block, so untied rows keep their
places); ranks are unique and below ``rows``, and ``rows`` is at most
``MAX_ROWS`` < 2**31, so the key orders by group first and fits int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .systems import PrimeSequence

DEFAULT_MAX_INTEGERS = 10**8
BLOCK = 1 << 14  # rows, parents or jumps per pass of a memory-bounded loop; no value depends on it
DUMP_BLOCK = 8192  # rows per write_dump block, not BLOCK: 16,384 raised its peak by half and ran no faster
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


@dataclass(frozen=True)
class EnumerationResult:
    """All generalized integers below ``bound`` as row columns, sorted by log value.

    Row 0 is the unit.  Row r is ``stem[r]`` times p_j^e with j = ``index[r]``,
    its largest prime index, and e = ``exp[r]``: the stem is r with every
    factor p_j divided out, so it precedes r, and r's (index, exponent) pairs
    are its stem's followed by (j, e).  The unit reads (0, -1, 0); the other
    rows of stem 0 are the prime powers.  Iterating yields GenInteger rows.
    """

    logs: np.ndarray     # float64 log values, non-decreasing
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


def _generations(primes: PrimeSequence, bound: float, max_count: int):
    """Yield one float64 buffer, then each generation's largest prime indices and
    child counts (C int), from the unit's on.  The generations fill the buffer
    with every row's log, in generation order; once they are spent it holds
    exactly the rows.  Past ``max_count`` rows it raises before the buffer grows.

    The buffer grows 1.25x, up to ``max_count`` rows.  Beside it a generation
    holds its parents' and its children's C int columns and O(``BLOCK``)
    items: :func:`_child_counts` and :func:`_fill_children` go ``BLOCK``
    parents, and ``BLOCK`` children, at a time.
    """
    if not math.isfinite(bound) or bound <= 1.0:
        raise ValueError(f"bound must be finite and > 1, got {bound}")
    if bound > primes.bound and not primes.exhaustive:
        raise ValueError(f"bound {bound} exceeds the bound {primes.bound} the primes were materialized to")
    if max_count > MAX_ROWS:
        raise ValueError(f"max_count must be at most {MAX_ROWS} (row ids are C int), got {max_count}")
    logs = primes.logs
    log_bound = math.log(bound)
    buf = np.zeros(1)  # the unit's log
    yield buf
    first, rows, index = 0, 1, np.full(1, -1, np.intc)  # the generation is rows first..rows-1
    while index.size:
        counts = _child_counts(logs, buf[first:rows], index, log_bound)
        size = int(counts.sum())
        if rows + size > max_count:
            raise CapacityError(f"enumeration exceeded max_count={max_count}")
        if rows + size > buf.size:  # no view of buf is held here: a resize may move it
            buf.resize(min(max_count, max(rows + size, buf.size * 5 // 4)), refcheck=False)
        yield index, counts
        children = np.empty(size, np.intc)
        _fill_children(logs, buf[first:rows], index, counts, buf[rows : rows + size], children)
        first, rows, index = rows, rows + size, children
        del counts  # before the next generation's
    buf.resize(rows, refcheck=False)


def _child_counts(logs, lv, index, log_bound):
    """Each parent's number of children (C int): p_j for j from its largest
    index while the sum stays below the bound, one run per parent, since logs
    are non-decreasing.  ``lv`` and ``index`` are the parents' logs and largest
    indices.  fl(log B - lv) can admit a j that fails the cut; step back."""
    counts = np.empty(index.size, np.intc)
    for a in range(0, index.size, BLOCK):
        lo = np.maximum(index[a : a + BLOCK], 0)
        u = lv[a : a + BLOCK]
        hi = logs.searchsorted(log_bound - u, side="right")
        live = (hi > lo).nonzero()[0]
        while (over := live[~_fits(u[live], logs[hi[live] - 1], log_bound)]).size:
            hi[over] -= 1
            live = over[hi[over] > lo[over]]  # the others still fit
        counts[a : a + BLOCK] = np.maximum(hi - lo, 0)
    return counts


def _fill_children(logs, lv, index, counts, out, out_index):
    """Write the children's logs (parent's log plus log p_j, in that order) into
    ``out`` and their j into ``out_index``, the parents' runs in row order.
    Each piece is at most ``BLOCK`` children of at most ``BLOCK`` parents."""
    done = 0
    for a in range(0, index.size, BLOCK):
        k = counts[a : a + BLOCK]
        edges = np.zeros(k.size + 1, dtype=np.int64)  # parent i's children are edges[i]..edges[i+1]-1
        size = int(k.cumsum(out=edges[1:])[-1])
        offset = edges[:-1] - np.maximum(index[a : a + BLOCK], 0)  # child c of parent i has j = c - offset[i]
        for c in range(0, size, BLOCK):  # the children c..c1-1, of the parents i..i1-1
            c1 = min(c + BLOCK, size)
            i, i1 = edges.searchsorted(c, side="right") - 1, edges.searchsorted(c1 - 1, side="right")
            n = np.minimum(np.maximum(edges[i : i1 + 1], c), c1)
            n = n[1:] - n[:-1]  # each parent's children among c..c1-1
            j = np.arange(c, c1) - offset[i:i1].repeat(n)
            np.add(lv[a + i : a + i1].repeat(n), logs[j], out=out[done + c : done + c1])
            out_index[done + c : done + c1] = j
        done += size


def _fits(u, step, reach):
    """The child cut, fl(u + step) < reach.  It implies step <= fl(reach - u),
    and it rises with the step, so over sorted steps it keeps a prefix."""
    return u + step < reach


def _levels(logs, reach, block):
    """(k, lo, u): level k's powers of the primes lo, lo + 1, ..., ``block`` primes
    at a time, each block's levels made one from the one before."""
    for lo in range(0, logs.size, block):
        step, k = logs[lo : lo + block], 0
        u = np.zeros(step.size)
        while n := np.count_nonzero(_fits(u, step[: u.size], reach)):
            u, k = u[:n] + step[:n], k + 1
            yield k, lo, u


def _psi_jumps(primes: PrimeSequence, bound: float):
    """psi's jumps below ``bound``: the prime powers' logs and Lambda, log p_j.
    The levels' blocks (:func:`_levels`) and their j go k-major, each by descending
    j, into one stable argsort, so equal logs come by descending j, the rows' tie
    order: of two equal powers, the smaller j holds more factors."""
    logs = primes.logs
    blocks = sorted(_levels(logs, math.log(bound), BLOCK), key=lambda b: (b[0], -b[1]))  # k-major, descending j
    u = np.concatenate([logs[:0]] + [level[::-1] for _, _, level in blocks])
    j = np.concatenate([np.arange(0)] + [np.arange(lo + level.size - 1, lo - 1, -1) for _, lo, level in blocks])
    del blocks
    j = j[np.argsort(u, kind="stable")]
    u.sort()  # equal logs share their bits, so their order does not show
    return u, logs[j]


def _preorder(counts):
    """Preorder rank of every row in the build tree (C int), from each
    generation's child counts, in one array that first holds the subtree sizes.
    A parent's children are one run of the next generation, so its size is one
    plus one ``np.add.reduceat`` segment.  A row's rank less the subtrees before
    it in its generation is the same offset of its parent, plus one, plus the
    parent's place in its generation."""
    firsts = np.cumsum([0] + [c.size for c in counts])
    rank = np.ones(firsts[-1], dtype=np.intc)
    gens = np.split(rank, firsts[1:-1])  # one view per generation
    for k in range(len(counts) - 1, 0, -1):  # subtree sizes, bottom-up
        c = counts[k - 1]
        parents = np.flatnonzero(c)
        gens[k - 1][parents] += np.add.reduceat(gens[k], (np.cumsum(c) - c)[parents], dtype=np.intc)
    rank[0], offset = 0, np.zeros(1, dtype=np.intc)
    for k in range(1, len(counts)):  # sizes to ranks, top-down
        offset = np.repeat(offset + np.arange(1, offset.size + 1, dtype=np.intc), counts[k - 1])
        before = offset - gens[k]
        np.cumsum(gens[k], dtype=np.intc, out=gens[k])
        gens[k] += before
    return rank


def _tie_order(logs, order, rank):
    """Reorder ``order`` so that each tie group of the sorted ``logs`` goes by
    descending ``rank``, ``BLOCK`` rows or so at a time, each block cut at the
    end of the group of its last row (see the module docstring)."""
    rows, a = logs.size, 0
    while a < rows:
        b = int(logs.searchsorted(logs[min(a + BLOCK, rows) - 1], side="right"))
        change = logs[a + 1 : b] != logs[a : b - 1]
        if not change.all():  # a block with no tie keeps its order
            key = np.zeros(b - a, dtype=np.int64)
            np.cumsum(change, out=key[1:])
            key *= rows
            key -= rank[order[a:b]]
            order[a:b] = order[a:b][np.argsort(key)]
        a = b


def enumerate_integers(
    primes: PrimeSequence, bound: float, max_count: int = DEFAULT_MAX_INTEGERS
) -> EnumerationResult:
    """Every generalized integer with value < bound, sorted ascending.

    Row 0 is the unit.  Ties in value are ordered by lexicographically smaller
    dense exponent vector, that is by descending preorder rank in the build
    tree.  Raises :class:`CapacityError` past ``max_count``, and ``ValueError``
    for a ``max_count`` above ``MAX_ROWS``.
    """
    generations = _generations(primes, bound, max_count)
    logs = next(generations)
    index, counts = (list(c) for c in zip(*generations))
    rows = logs.size
    order = np.argsort(logs).astype(np.intc)
    logs.sort()
    if np.any(logs[1:] == logs[:-1]):
        _tie_order(logs, order, _preorder(counts))
    # Each row's sorted place (rows in generation order), and the prime indices
    # in sorted order, BLOCK sorted places at a time.
    sizes, index = [j.size for j in index], np.concatenate(index)
    inverse, sorted_index = np.empty(rows, dtype=np.intc), np.empty(rows, dtype=np.intc)
    for a in range(0, rows, BLOCK):
        rows_here = order[a : a + BLOCK].astype(np.intp)
        inverse[rows_here] = np.arange(a, a + rows_here.size, dtype=np.intc)
        np.take(index, rows_here, out=sorted_index[a : a + BLOCK])
    del order, index
    # Stems as sorted row ids, scattered to sorted places BLOCK parents at a time:
    # a row's first child (by its own largest prime) keeps the row's stem one
    # exponent up; the others' stem is the row, and their exponent 1.
    gens = np.split(inverse, np.cumsum(sizes)[:-1])  # sorted ids, one view per generation
    stem, exp = np.zeros(rows, dtype=np.intc), np.ones(rows, dtype=np.intc)
    exp[0] = 0  # the unit's
    for above, below, c in zip(gens, gens[1:], counts):
        done = 0
        for a in range(0, c.size, BLOCK):
            n, parents = c[a : a + BLOCK], above[a : a + BLOCK]
            s = np.repeat(parents, n)
            parents, n = parents[n > 0], n[n > 0]
            first = np.cumsum(n) - n  # each parent's first child
            s[first] = stem[parents]
            ids = below[done : done + s.size].astype(np.intp)
            np.put(stem, ids, s)
            exp[ids[first]] = exp[parents] + 1
            done += s.size
    return EnumerationResult(logs, stem, sorted_index, exp, float(bound))


def jump_arrays(
    primes: PrimeSequence, bound: float, max_count: int = DEFAULT_MAX_INTEGERS
):
    """The jumps of N and psi below bound: ``(logs, psi_logs, lambdas)``, the
    ``logs`` of :func:`enumerate_integers` and psi's list (:func:`_psi_jumps`)."""
    generations = _generations(primes, bound, max_count)
    logs = next(generations)
    for _ in generations:  # each fills the buffer
        pass
    logs.sort()  # tied rows share their log, so their order does not show
    return (logs, *_psi_jumps(primes, bound))


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
    power = stem == 0  # the unit (row 0, index -1) and the prime powers
    primes = np.flatnonzero(power & (token == 1))
    primes = primes[np.argsort(en.index[primes])]  # the row of p_j at j
    counts = np.bincount(en.index[power][1:], minlength=len(primes))
    # Piece ids: 0 the empty string, 1 the lambda 0.0, 2 + j prime j's Lambda,
    # then the pairs j:1, j:2, ... of each j in turn, then the same with a comma.
    pairs = [f"{j}:{e}" for j, k in enumerate(counts.tolist()) for e in range(1, k + 1)]
    pieces = [""] + [f"\t{lam:.17g}\n" for lam in [0.0] + en.logs[primes].tolist()]
    pieces = np.array(pieces + pairs + ["," + pair for pair in pairs], dtype=object)
    offset = (1 + len(primes) + np.cumsum(counts) - counts).astype(np.intc)  # j:1's id less one
    token[1:] += offset[en.index[1:]]  # exponent to pair id; the unit's stays 0
    token[~power] += len(pairs)  # a comma after the stem's field
    with open(path, "w") as fh:
        for start in range(0, len(en), DUMP_BLOCK):
            cut = slice(start, start + DUMP_BLOCK)
            lam = np.where(power[cut], 2 + en.index[cut], 1)  # the unit's index -1 gives 1 too
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
