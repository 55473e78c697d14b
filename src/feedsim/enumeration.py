"""Exact-expectation engine over exchangeable rival reports.

Every oracle reports through the one shared confusion matrix, so rival
reports are i.i.d. given the truth: a rival matters only through its oracle
count (multiplicity) and its reward factor. Rivals of equal multiplicity form
a group, and a round is decided by how many members of each group report
each class.

Payoffs: for the focal report v, let k hold, per multiplicity group, the
number of rivals that also report v. The focal user's win mass (its votes
against the best rival class, ties split uniformly) is summed per k into a
table that is built once per focal oracle count from the multinomial report
counts of each group; it depends on neither d nor the factors. A state's
standings (`_standings`) are found once for all counts, and a count is one
`bincount`: about 0.23 ms per amt10 count on a 2-core machine. A finished
table is divided once per k by the rival sets behind k, prod_g C(n_g, k_g).
A query groups the rivals by (multiplicity, factor), in sorted order, sums
f / (f + M) over every split of the matching rivals across those groups,
weighted by the number of rival sets with that split (M is the split's
factor sum), and contracts with the table in a fixed-order `einsum`. The
table's states are walked in mixed-radix blocks (`_blocks`) of at most
`_BLOCK` (class, state) cells per numpy pass. A query lays out the splits of
its trailing groups that fit in `_BLOCK`, with no cache, and walks the
groups before them one split at a time. A query holds one row of factors per
exponent: rivals share a group when their factors agree on every row, and a
pass takes as many (row, count) pairs as keep it within `_BLOCK` cells. A
payoff thus depends only on the rival multiset, not on rival order or on the
counts and rows sharing its call. It is the focal user's share of the
reward: `feedsim.payoff` multiplies it by the total reward.

Error rates depend on vote counts only. Each multiplicity group's multinomial
report counts give its vote-count vectors and their probability per truth
class; folding the groups in one at a time, with equal vectors merged after
each fold, gives the distribution of the rival vote-count vector, built once.
Multinomial coefficients and set counts come from one table of binomials.
Each (vector, focal report) splits its truth mass once into non-negative
parts, and a count picks among them in one pass: amt10's c = 1..8 take
about 0.45 ms, or 50 ms with every user mirroring at full stake (149 735
vectors).

A query is priced in the float64 cells it would build, from the group sizes
alone, and refused over `_BUDGET` before anything is allocated: amt10's
largest solver call costs 6.9e4 cells, 12 to 40 users at K = 5 1.3e5 to 1.2e8.
A query pays only for the win tables of counts its engine has not built yet.

An engine keeps every table it builds, so sharing one saves work:
`payoff.engine_for` builds one per rival population of a config and keeps
it in that config, for as long as the config lives. The solver, the sweep,
payoffs and error rates on one config read the same tables.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np

_BUDGET = 10**9  # float64 cells a query may build
_BLOCK = 1 << 16  # (class, state) or (row, count, split) cells per pass: stays in cache


class EnumerationBudgetError(RuntimeError):
    """An exact query would build more cells than the budget; use the Monte Carlo path."""


def _compositions(n: int, k: int) -> np.ndarray:
    """Every way to spread n reports over k classes, one row per way."""
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)), dtype=np.int64)
    ends = np.ones((len(bars), 1), dtype=np.int64)
    return np.diff(np.hstack([-ends, bars, (n + k - 1) * ends])) - 1


def _blocks(radix: Sequence[int], rows: int):
    """Mixed-radix digits of 0..prod(radix)-1 as (len(radix), rows) arrays,
    at most `rows` rows at a time."""
    total = math.prod(radix)
    for lo in range(0, total, rows):
        flat = np.arange(lo, min(lo + rows, total))
        # a leading digit of radix 1 keeps the shape when `radix` is empty
        yield np.array(np.unravel_index(flat, (1, *radix)))[1:]


def _standings(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per class (row) and state (column): the class's lead over the state's
    top count (0 at the top), and how many other classes hold the top.

    With c >= 1 focal votes on class v, v wins alone when lead + c > 0, ties
    the top when it is 0 and trails below: a class that holds the top alone
    leads, so no runner-up is needed."""
    lead = votes - votes.max(axis=0)
    at_top = lead == 0
    return lead, at_top.sum(axis=0) - at_top


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
        self._win: dict[int, np.ndarray] = {}

    def _afford(self, cells: int) -> None:
        """Refuse a query that would build more than `_BUDGET` float64 cells."""
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
        return np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)], float)

    @functools.cached_property
    def _groups(self) -> tuple[list, list]:
        """Per multiplicity group: its report counts per class (one row per
        composition) and their probability per truth."""
        binom = self._binomials
        comps, probs = [], []
        for n in self.group_sizes:
            comp = _compositions(n, self.num_classes)
            # the multinomial, class by class: choose x_j of the reports not yet placed
            unplaced = n - np.cumsum(comp, axis=1) + comp
            coef = binom[unplaced, comp].prod(axis=1)
            comps.append(comp)
            probs.append(coef * np.prod(self.confusion[:, None, :] ** comp, axis=2))
        return comps, probs

    def _win_tables(self, counts: list[int]) -> None:
        """Per-k win mass for each count in `counts`, summed over truth and v.

        A state fixes how many members of each multiplicity group report each
        class. Its weight is added at its k for v, and a finished table is
        divided once per k by the rival sets behind it, so a query's split
        weights can count those sets instead. A count's table is built the
        same way whatever counts share the call.
        """
        k = self.num_classes
        truth_weight = self.prior[:, None] * self.confusion  # (truth, report)
        comps, probs = self._groups
        # per group, (class, composition) tables that `take` gathers states from
        parts = [(np.ascontiguousarray(p), np.ascontiguousarray(c.T), m, self._k_stride[m])
                 for m, c, p in zip(self.group_mults, comps, probs)]
        tables = np.zeros((len(counts), self._k_size))
        for digits in _blocks([len(c) for c in comps], max(1, _BLOCK // k)):
            size = digits.shape[1]
            prob = np.ones((k, size))
            votes = np.zeros((k, size), dtype=np.int64)  # (class, state), like all below
            k_index = np.zeros((k, size), dtype=np.int64)
            for (p, c, m, stride), idx in zip(parts, digits):
                prob *= np.take(p, idx, axis=1)
                x = np.take(c, idx, axis=1)
                votes += m * x
                k_index += stride * x
            weight = truth_weight.T @ prob
            lead, ties = _standings(votes)
            tied = weight / (1 + ties)
            for i, c in enumerate(counts):
                win = np.where(lead > -c, weight, np.where(lead == -c, tied, 0.0))
                tables[i] += np.bincount(k_index.ravel(), weights=win.ravel(), minlength=self._k_size)
        k_digits = next(_blocks([n + 1 for n in self.group_sizes], self._k_size))
        tables /= self._binomials[self.group_sizes, k_digits.T].prod(axis=1)
        self._win.update(zip(counts, tables))

    @functools.cached_property
    def _vote_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rival vote-count vectors and their probability per truth.

        Folds in one multiplicity group at a time: a group's compositions give
        distinct vectors, so only the fold of a second group can merge any.
        Merges sort the vectors in the smallest type that holds the total
        vote count, for which numpy's stable sort is a radix sort.
        """
        k = self.num_classes
        # a fold's vectors so far are bounded by their product and by the
        # vectors of T votes; each meets every composition of the group
        cells, vectors, total = 0, 1, 0
        for m, n in zip(self.group_mults, self.group_sizes):
            comps = math.comb(n + k - 1, k - 1)
            cells += vectors * comps * k
            total += m * n
            vectors = min(vectors * comps, math.comb(total + k - 1, k - 1))
        self._afford(cells)
        comps, group_probs = self._groups
        dtype = np.min_scalar_type(sum(self.mults))
        votes = np.zeros((1, k), dtype=dtype)
        probs = np.ones((k, 1))
        for g, (m, comp, prob) in enumerate(zip(self.group_mults, comps, group_probs)):
            votes = (votes[:, None, :] + (m * comp).astype(dtype)).reshape(-1, k)
            probs = (probs[:, :, None] * prob[:, None, :]).reshape(k, -1)
            if g:
                order = np.lexsort(votes.T[::-1])
                votes, probs = votes[order], np.take(probs, order, axis=1)
                starts = np.flatnonzero(np.r_[True, (votes[1:] != votes[:-1]).any(axis=1)])
                votes, probs = votes[starts], np.add.reduceat(probs, starts, axis=1)
        return votes.astype(np.int64), probs

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
        missing = sorted({c for c in cs if c not in self._win})
        k, new = self.num_classes, len(missing)
        states = math.prod(math.comb(n + k - 1, k - 1) for n in self.group_sizes)
        tables = states * k * (len(self.group_sizes) + new) + self._k_size * new if new else 0
        self._afford(tables + math.prod(radix) * len(cs) * len(fs))
        if missing:
            self._win_tables(missing)
        table = np.stack([self._win[c] for c in cs])
        # the splits of the groups from `cut` on fit one pass and are laid out
        # once per call; the groups before `cut` are walked one split at a time
        cut = len(radix)
        while cut and math.prod(radix[cut - 1:]) <= _BLOCK:
            cut -= 1
        split = low[cut:, None] + next(_blocks(radix[cut:], _BLOCK))
        weight = self._binomials[sizes[cut:, None], split].prod(axis=0)
        column = stride[cut:] @ split
        split = split.astype(float)
        width = min(len(cs), max(1, _BLOCK // split.shape[1]))  # counts per pass
        step = max(1, _BLOCK // (width * split.shape[1]))  # rows per pass
        lead = list(zip(sizes.tolist(), low.tolist(), stride.tolist()))[:cut]
        out = np.zeros(fs.shape)
        for start, first in itertools.product(range(0, len(fs), step), range(0, len(cs), width)):
            rows, cols = slice(start, start + step), slice(first, first + width)
            f = fs[rows, cols, None]
            # einsum here and below, not a matrix product: a payoff's sums must
            # not depend on the rows and counts that share the call
            inner = np.einsum("rg,gs->rs", factor[rows, cut:], split)
            for head in itertools.product(*(range(lo, n + 1) for n, lo, _ in lead)):
                m, k, sets = np.zeros(len(f)), 0, 1.0
                # group by group, so again a row's sum does not depend on the rows
                for g, ((n, _, x), a) in enumerate(zip(lead, head)):
                    m += factor[rows, g] * a
                    k += x * a
                    sets *= self._binomials[n, a]
                # in place: a fresh temporary this size would be paged in anew
                share = f + m[:, None, None] + inner[:, None, :]
                np.divide(f, share, out=share)
                share *= table[cols, k + column]
                out[rows, cols] += np.einsum("rcs,s->rc", share, sets * weight)
        return out

    def error_rates(self, focal_counts: Sequence[int]) -> np.ndarray:
        """Probability the decided output differs from the truth, per focal count.

        Per rival vote vector and focal report v, the truth mass splits into
        three non-negative parts: on v, on other classes at the top count, and
        the rest. A count picks whether v leads, ties or trails and weights the
        parts by how often that misses; no miss is a difference of larger
        masses, so small rates keep their relative accuracy.
        """
        cs = [int(c) for c in focal_counts]
        if any(c < 1 for c in cs):
            raise ValueError("focal oracle count must be >= 1")
        votes, probs = self._vote_distribution
        truth_weight = self.prior[:, None] * self.confusion  # (truth, v)
        off = truth_weight * (1.0 - np.eye(self.num_classes))  # truths other than v
        out = np.zeros(len(cs))
        step = max(1, _BLOCK // self.num_classes)
        for lo in range(0, len(votes), step):
            vote, prob = np.ascontiguousarray(votes[lo:lo + step].T), probs[:, lo:lo + step]
            lead, ties = _standings(vote)  # (class, state), like all below
            at_top = off.T @ (prob * (lead == 0))
            rest = off.T @ (prob * (lead < 0))
            mine = np.diag(truth_weight)[:, None] * prob
            lone = at_top + rest  # v wins alone
            even = (mine + at_top) * (ties / (ties + 1.0)) + rest  # v ties the top
            # ties is 0 only where v holds the top alone, which never trails
            behind = mine + at_top * ((ties - 1.0) / np.maximum(ties, 1)) + rest
            for i, c in enumerate(cs):
                out[i] += np.where(lead > -c, lone, np.where(lead == -c, even, behind)).sum()
        return out
