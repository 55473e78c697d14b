"""Exact-expectation engine over exchangeable rival reports.

Every oracle reports through the one shared confusion matrix, so rival
reports are i.i.d. given the truth: a rival matters only through its oracle
count (multiplicity) and its reward factor. Rivals of equal multiplicity form
a group, and a round is decided by how many members of each group report
each class.

Payoffs: for the focal report v, let k hold, per multiplicity group, the
number of rivals that also report v. The focal user's win mass (its votes
against the best rival class, ties split uniformly) is summed per k, from
the multinomial report counts of each group, into one table for every focal
count, independent of d and the factors: a count's row is a prefix sum over
the votes v trails the top by (`_standings`). It takes about 0.14 ms on amt10
(2-core machine), and is divided once per k by the rival sets behind k.
A query groups the rivals by (multiplicity, factor), in sorted order, sums
f / (f + M) over every split of the matching rivals across those groups,
weighted by the number of rival sets with that split (M is the split's
factor sum), and contracts with the table in a fixed-order `einsum`. The
table's states and a query's splits are walked alike, in mixed-radix blocks
(`_blocks`) of at most `_BLOCK` cells per numpy pass, with no cache: (class,
state) cells for a table, (row, count, split) cells for a query. A query
holds one row of factors per exponent: rivals share a group when their
factors agree on every row, a block's factor sums are found once per row,
and a pass takes as many (row, count) pairs as keep it within `_BLOCK`
cells. The blocks depend on the groups alone, so a payoff depends only on
the rival multiset, not on rival order or on the counts and rows sharing its
call. It is the focal user's share of the reward, clipped at 1 against
rounding: `feedsim.payoff` multiplies it by the total reward.

Error rates depend on vote counts only. Each multiplicity group's multinomial
report counts give its vote-count vectors and their probability per truth
class, all from one fold over the classes. The first group's arrays, each
later group merged in with equal vectors summed, give the distribution of the
rival vote-count vector, built once: one group is `_groups`' own arrays.
Multinomial coefficients and set counts come from one table of binomials.
Its truth mass splits into non-negative parts, binned by gap like the win
table: amt10's c = 1..8 take about 0.12 ms, or 14 ms with every user
mirroring at full stake (141 745 vectors).

Each build is priced in float64 cells from the group sizes alone and refused
over `_BUDGET` before anything is allocated. A cached table pays at the top of
its builder for `_groups`' fold, built yet or not (3K + 4 cells a composition,
and the binomials), then the win table for its walk, (class, state) cells times
groups + 2 with one block's working set left out, and four (gap, k) arrays, the
vote distribution for its first group's votes and what each merge holds, 2K + 2
cells per vector of its product. A payoff query pays for its split walk alone:
amt10's cost at most 3.7e4 cells, its win table 24 810. A group of 1030 or
more rivals is refused too: its set counts, C(n, k), pass the float range.

An engine keeps every table it builds, so sharing one saves work:
`payoff.engine_for` builds one per rival population of a config and keeps
it in that config, for as long as the config lives. The solver, the sweep,
payoffs and error rates on one config read the same tables.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from typing import Sequence

import numpy as np

_BUDGET = 10**9  # float64 cells a query may build
_BLOCK = 1 << 16  # (class, state) or (row, count, split) cells per pass: stays in cache


class EnumerationBudgetError(RuntimeError):
    """An exact query would build more cells than the budget; use the Monte Carlo path."""


def _blocks(radix: Sequence[int], rows: int):
    """Mixed-radix digits of 0..prod(radix)-1 as (len(radix), rows) arrays,
    at most `rows` rows at a time."""
    total = math.prod(radix)
    for lo in range(0, total, rows):
        flat = np.arange(lo, min(lo + rows, total))
        # a leading digit of radix 1 keeps the shape when `radix` is empty
        yield np.array(np.unravel_index(flat, (1, *radix)))[1:]


def _standings(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per class (row) and state (column): the votes the class trails the
    state's top count by (0 at the top), and how many other classes hold it.

    With c >= 1 focal votes on class v, v wins alone when its gap is below c,
    ties the top at gap c and trails above: a class that holds the top alone
    leads, so no runner-up is needed."""
    gap = votes.max(axis=0) - votes
    at_top = gap == 0
    return gap, at_top.sum(axis=0) - at_top


class ExactEnumerator:
    """Builds count tables for one rival population and answers many queries.

    Build one with `payoff.engine_for`, which keeps it in the config it
    describes, so that every query on that population shares its tables.
    """

    def __init__(
        self,
        confusion: np.ndarray,
        prior: np.ndarray,
        rival_multiplicities: Sequence[int],
    ):
        self.confusion = np.ascontiguousarray(confusion, dtype=np.float64)
        self.prior = np.ascontiguousarray(prior, dtype=np.float64)
        self.num_classes = self.confusion.shape[0]
        self.mults = tuple(int(m) for m in rival_multiplicities)
        self.num_rivals = len(self.mults)
        self.group_mults = sorted(set(self.mults))
        self.group_sizes = [self.mults.count(m) for m in self.group_mults]
        # win tables are indexed by k in mixed radix over the groups
        radix = [n + 1 for n in self.group_sizes]
        self._k_size = math.prod(radix)
        self._k_stride = {m: math.prod(radix[g + 1:]) for g, m in enumerate(self.group_mults)}
        # Every report that can occur is certain given the truth (one class, or
        # a perfect confusion matrix), so every rival matches the focal report.
        truth_weight = self.prior[:, None] * self.confusion
        self._all_match = bool(np.all((self.confusion == 1.0) | (truth_weight == 0.0)))
        self._gaps = sum(self.mults) + 1  # a class trails the top by 0..V rival votes
        # compositions per group; `_groups`' fold peaks at 3K + 4 cells each, plus binomials
        k = self.num_classes
        self._comps = [math.comb(n + k - 1, k - 1) for n in self.group_sizes]
        self._fold_cells = (3 * k + 4) * sum(self._comps) + max(radix, default=1) ** 2

    def _afford(self, cells: int) -> None:
        """Refuse a build of more than `_BUDGET` float64 cells."""
        if cells > _BUDGET:
            raise EnumerationBudgetError(
                f"exact enumeration needs {cells} cells, over the budget of "
                f"{_BUDGET}; use the Monte Carlo estimator instead"
            )

    # -- tables -------------------------------------------------------------

    @functools.cached_property
    def _binomials(self) -> np.ndarray:
        """C(a, b) for 0 <= a, b <= the largest group size as floats, 0 where b > a."""
        n = max(self.group_sizes, default=0)
        if math.comb(n, n // 2) > sys.float_info.max:  # from n = 1030 on
            raise EnumerationBudgetError(
                f"exact enumeration over a group of {n} rivals counts more rival "
                f"sets than a float holds; use the Monte Carlo estimator instead"
            )
        table, row = np.zeros((n + 1, n + 1)), [1]
        for a in range(n + 1):  # Pascal's rule on exact ints, one row held at a time
            table[a, :a + 1] = row
            row = [x + y for x, y in zip([0, *row], [*row, 0])]
        return table

    @functools.cached_property
    def _groups(self) -> tuple[list, list]:
        """Per multiplicity group: its report counts per class (one column per
        composition, in lexicographic order) and their probability per truth,
        folded from one column per group in one pass over the classes: each
        column places x = 0..left of the reports left in C(left, x) ways, and
        the last class takes all left. Each group is a slice of the result."""
        k = self.num_classes
        left = np.array(self.group_sizes, dtype=np.int64)
        comp = np.zeros((k, len(left)), dtype=np.int64)
        coef, prob = np.ones(len(left)), np.ones((k, len(left)))
        for j in range(k - 1):
            col = np.repeat(np.arange(len(left)), left + 1)
            comp = np.take(comp, col, axis=1)
            comp[j] = x = np.arange(len(col)) - (np.cumsum(left + 1) - left - 1)[col]
            coef = coef[col] * self._binomials[left[col], x]
            prob = np.take(prob, col, axis=1)  # in place below: a second such array peaks
            prob *= self.confusion[:, j, None] ** x
            left = left[col] - x
        comp[-1] = left
        prob *= self.confusion[:, -1, None] ** left
        prob *= coef
        ends = np.cumsum([0, *self._comps]).tolist()
        return tuple([a[:, lo:hi] for lo, hi in zip(ends, ends[1:])] for a in (comp, prob))

    @functools.cached_property
    def _win_tables(self) -> np.ndarray:
        """Per-k win mass, summed over truth and v, in row c - 1 for c focal
        votes (every count past the rivals' V votes reads row V). Each (class
        v, state) cell adds its weight at (gap, k), whole and split over the
        classes v would tie; dividing once per k by the rival sets behind it
        lets a query's split weights count them."""
        k = self.num_classes
        # the fold, the walk and four (gap, k) arrays: histogram pair, prefix sum, result
        self._afford(self._fold_cells + k * math.prod(self._comps) * (len(self._comps) + 2)
                     + 4 * self._gaps * self._k_size)
        truth_weight = self.prior[:, None] * self.confusion  # (truth, report)
        comps, probs = self._groups
        hist = np.zeros((2, self._gaps * self._k_size))  # whole and tie-split, at (gap, k)
        for digits in _blocks(self._comps, max(1, _BLOCK // k)):
            size = digits.shape[1]
            prob = np.ones((k, size))
            votes = np.zeros((k, size), dtype=np.int64)  # (class, state), like all below
            k_index = np.zeros((k, size), dtype=np.int64)
            for m, c, p, idx in zip(self.group_mults, comps, probs, digits):
                prob *= np.take(p, idx, axis=1)
                x = np.take(c, idx, axis=1)
                votes += m * x
                k_index += self._k_stride[m] * x
            weight = truth_weight.T @ prob
            gap, ties = _standings(votes)
            cell = (gap * self._k_size + k_index).ravel()
            hist[0] += np.bincount(cell, weight.ravel(), hist.shape[1])
            hist[1] += np.bincount(cell, (weight / (1 + ties)).ravel(), hist.shape[1])
        whole, tied = hist.reshape(2, self._gaps, -1)
        table = np.cumsum(whole, axis=0)  # row c - 1: the whole weights below gap c
        table[:-1] += tied[1:]  # and the split ones at c
        k_digits = next(_blocks([n + 1 for n in self.group_sizes], self._k_size))
        return table / self._binomials[self.group_sizes, k_digits.T].prod(axis=1)

    @functools.cached_property
    def _vote_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rival vote-count vectors, in the smallest integer type that
        holds the rivals' votes, and their probability per truth. The first
        group's distinct compositions start the fold as they are; each later
        group is merged in, the vectors radix-sorted, the probabilities
        reordered one class at a time and equal vectors summed."""
        k = self.num_classes
        # `_groups`' fold, the first group's votes, then what each merge holds per vector
        # of its product: probabilities and their sums, votes, order and sort scratch.
        # The vectors so far are bounded by that product and by the vectors of T votes
        cells, vectors, total = self._fold_cells, 1, 0
        for g, (m, n, comps) in enumerate(zip(self.group_mults, self.group_sizes, self._comps)):
            cells += vectors * comps * (2 * k + 2 if g else k)
            total += m * n
            vectors = min(vectors * comps, math.comb(total + k - 1, k - 1))
        self._afford(cells)
        comps, group_probs = self._groups
        dtype = np.min_scalar_type(sum(self.mults))
        if not comps:  # no rivals: one all-zero vector, certain
            return np.zeros((1, k), dtype=dtype), np.ones((k, 1))
        votes, probs = comps[0].T.astype(dtype, order="C"), group_probs[0]
        votes *= self.group_mults[0]
        for m, comp, prob in zip(self.group_mults[1:], comps[1:], group_probs[1:]):
            votes = (votes[:, None, :] + (m * comp.T).astype(dtype)).reshape(-1, k)
            probs = (probs[:, :, None] * prob[:, None, :]).reshape(k, -1)
            order = np.lexsort(votes.T[::-1])
            votes = votes[order]
            for row in probs:  # one class at a time: no second (class, vector) array
                row[:] = row[order]
            starts = np.flatnonzero(np.r_[True, (votes[1:] != votes[:-1]).any(axis=1)])
            votes, probs = votes[starts], np.add.reduceat(probs, starts, axis=1)
        return votes, probs

    # -- queries ------------------------------------------------------------

    def payoffs(
        self,
        focal_counts: Sequence[int],
        focal_factors: Sequence[Sequence[float]],
        rival_factors: Sequence[Sequence[float]],
    ) -> np.ndarray:
        """Expected focal share of the reward for each (exponent row, oracle count).

        The focal user casts `focal_counts[i]` identical votes and, when its
        report is the decided output, earns `focal_factors[r, i]` over the sum
        of that factor and the factors in `rival_factors[r]` of every rival
        that also matched. Both factor arguments hold one row per exponent:
        `(rows, counts)` focal and `(rows, rivals)` rival factors give a
        `(rows, counts)` result.
        """
        cs = [int(c) for c in focal_counts]
        fs = np.asarray(focal_factors, dtype=np.float64)
        rf = np.asarray(rival_factors, dtype=np.float64)
        if fs.ndim != 2 or rf.ndim != 2:
            raise ValueError("focal and rival factors must both be 2-D, one row per exponent")
        if fs.shape[1] != len(cs):
            raise ValueError("focal_counts and focal_factors must align")
        if len(fs) != len(rf):
            raise ValueError("focal and rival factors must have the same rows")
        if any(c < 1 for c in cs):
            raise ValueError("focal oracle count must be >= 1")
        if rf.shape[1] != self.num_rivals:
            raise ValueError(f"expected {self.num_rivals} rival factors")
        # a share is scale-free: divide a row whose factor total overflows by its largest
        top = fs.max(axis=1, initial=0.0)
        with np.errstate(over="ignore"):
            over = ~np.isfinite(top + rf.sum(axis=1))
        if over.any():
            scale = np.where(over, np.maximum(top, rf.max(axis=1, initial=0.0)), 1.0)[:, None]
            fs, rf = fs / scale, rf / scale
        # rivals whose factors agree on every row share a group, in sorted order
        groups = dict(sorted(Counter(zip(self.mults, map(tuple, rf.T.tolist()))).items()))
        sizes = np.array(list(groups.values()), dtype=np.int64)
        factor = np.array([f for _, f in groups], dtype=np.float64).reshape(len(sizes), len(rf)).T
        stride = np.array([self._k_stride[m] for m, _ in groups], dtype=np.int64)
        low = sizes if self._all_match else np.zeros_like(sizes)
        radix = (sizes + 1 - low).tolist()
        self._afford(math.prod(radix) * len(cs) * len(fs))
        table = self._win_tables[np.minimum(cs, self._gaps) - 1]
        out = np.zeros(fs.shape)
        # the splits in blocks that depend on the groups alone, like the states
        for digits in _blocks(radix, _BLOCK):
            split = low[:, None] + digits
            weight = self._binomials[sizes[:, None], split].prod(axis=0)
            column = stride @ split
            split = split.astype(float)
            width = min(len(cs), max(1, _BLOCK // split.shape[1]))  # counts per pass
            step = max(1, _BLOCK // (width * split.shape[1]))  # rows per pass
            for start in range(0, len(fs), step):
                rows = slice(start, start + step)
                # einsum here and below, not a matrix product: a payoff's sums
                # must not depend on the rows and counts that share the call
                rival = np.einsum("rg,gs->rs", factor[rows], split)
                for first in range(0, len(cs), width):
                    cols = slice(first, first + width)
                    f = fs[rows, cols, None]
                    # in place: a fresh temporary this size would be paged in anew
                    share = f + rival[:, None, :]
                    np.divide(f, share, out=share)
                    share *= table[cols, column]
                    out[rows, cols] += np.einsum("rcs,s->rc", share, weight)
        # a share never exceeds 1, but its sum over splits can round a hair past
        return np.minimum(out, 1.0, out=out)

    def error_rates(self, focal_counts: Sequence[int]) -> np.ndarray:
        """Probability the decided output differs from the truth, per focal count.

        A truth below a rival vote vector's top is missed whatever the focal
        report v. The truth mass on v and on the other top classes misses by
        whether v leads, ties or trails, binned by v's gap to the top: count c
        reads leads below gap c, ties at c and trails above. No miss is a
        difference of larger masses, so small rates keep relative accuracy.
        """
        cs = [int(c) for c in focal_counts]
        if any(c < 1 for c in cs):
            raise ValueError("focal oracle count must be >= 1")
        votes, probs = self._vote_distribution
        truth_weight = self.prior[:, None] * self.confusion  # (truth, v)
        off = truth_weight * (1.0 - np.eye(self.num_classes))  # truths other than v
        below_top = 0.0
        bins = np.zeros((3, self._gaps + 2))  # lead, tie and trail misses per gap, 0 past V
        step = max(1, _BLOCK // self.num_classes)
        for lo in range(0, len(votes), step):
            vote, prob = np.ascontiguousarray(votes[lo:lo + step].T), probs[:, lo:lo + step]
            gap, ties = _standings(vote)  # (class, state), like all below
            top = gap == 0
            below_top += off.sum(axis=1) @ (prob * ~top).sum(axis=1)
            at_top = off.T @ (prob * top)
            mine = np.diag(truth_weight)[:, None] * prob
            misses = (at_top,  # v wins alone
                      (mine + at_top) * (ties / (ties + 1.0)),  # v ties the top
                      # ties is 0 only where v holds the top alone, which never trails
                      mine + at_top * ((ties - 1.0) / np.maximum(ties, 1)))
            for row, miss in enumerate(misses):
                bins[row] += np.bincount(gap.ravel(), miss.ravel(), self._gaps + 2)
        lead, tie, trail = bins
        c = np.minimum(cs, self._gaps)
        return below_top + np.cumsum(lead)[c - 1] + tie[c] + np.cumsum(trail[::-1])[::-1][c + 1]
