"""Construction helpers shared by the test modules."""

import numpy as np

import feedsim as fs


def weakly_accurate_matrix(rng, num_classes):
    """Random row-stochastic matrix whose diagonal dominates every row."""
    diag = rng.uniform(0.55, 0.9, size=num_classes)
    off = rng.uniform(0.05, 1.0, size=(num_classes, num_classes))
    np.fill_diagonal(off, 0.0)
    off = off / off.sum(axis=1, keepdims=True) * (1.0 - diag)[:, None]
    np.fill_diagonal(off, diag)
    return off


def random_config(rng, max_users=4, max_classes=3, max_stake=5, uniform_prior=True):
    num_classes = int(rng.integers(2, max_classes + 1))
    num_users = int(rng.integers(2, max_users + 1))
    stakes = [int(s) for s in rng.integers(1, max_stake + 1, size=num_users)]
    prior = None
    if not uniform_prior:
        prior = fs.ClassPrior(rng.dirichlet(np.ones(num_classes)))
    return fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
        prior=prior,
    )


def grouped_instance(rng):
    """Config with 5-6 users plus a strategy per user, built so that rivals
    share groups: stakes come in equal pairs whose two users run the same
    concentrated strategy (one (multiplicity, factor) group), and the pairs
    run different oracle counts (several multiplicity groups).
    """
    num_users = int(rng.integers(5, 7))
    num_classes = int(rng.integers(2, 4))
    pair_stakes = [int(s) for s in rng.integers(2, 5, size=(num_users + 1) // 2)]
    pair_counts = [1, pair_stakes[1]] + [
        int(rng.integers(1, s + 1)) for s in pair_stakes[2:]
    ]
    pairs = [i % len(pair_stakes) for i in rng.permutation(num_users)]
    cfg = fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(
            fs.UserProfile(i + 1, pair_stakes[p]) for i, p in enumerate(pairs)
        ),
        prior=fs.ClassPrior(rng.dirichlet(np.ones(num_classes))),
    )
    strategies = {
        i + 1: fs.Strategy.concentrated(pair_stakes[p], pair_counts[p])
        for i, p in enumerate(pairs)
    }
    return cfg, strategies


def random_solvable_config(rng, max_users=4, max_classes=3):
    """Random config in which no user can force wins by mirroring.

    A user whose stake reaches the network size can cast more votes than all
    rivals combined and wins regardless of d, so no exponent deters it; keep
    every stake below N (and at least one user able to mirror at all).
    """
    num_classes = int(rng.integers(2, max_classes + 1))
    num_users = int(rng.integers(3, max_users + 1))
    stakes = [int(s) for s in rng.integers(1, num_users, size=num_users)]
    stakes[0] = num_users - 1
    return fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
    )


def symmetric_binary_config(stakes, accuracy=0.8):
    matrix = [[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]]
    return fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix(matrix),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
    )
