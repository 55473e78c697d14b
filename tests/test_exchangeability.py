"""Exact answers depend on the model alone.

Users are exchangeable apart from stake, so neither the order of `users` in
a config nor the ids they carry may change an exact answer, not even in the
last bit; and the sweep, single-count payoffs, general payoffs and the Nash
certificate answer the same deviation with the same number.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feedsim as fs
import helpers
from feedsim import enumeration

SEARCH = fs.SolverSettings(epsilon=0.25, d_max=6.0)


@st.composite
def relabelled_networks(draw):
    """(config, strategies, the same network with its users shuffled and
    renumbered, the same strategies under the new ids, old id -> new id)."""
    k = draw(st.integers(2, 4))
    stakes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    confusion = fs.ConfusionMatrix(helpers.weakly_accurate_matrix(rng, k))
    prior = fs.ClassPrior(rng.dirichlet(np.ones(k)))
    counts = [draw(st.integers(1, s)) for s in stakes]
    order = draw(st.permutations(range(len(stakes))))
    ids = draw(st.permutations(range(1, len(stakes) + 1)))

    def network(users):
        return fs.SystemConfig(num_classes=k, confusion=confusion, users=tuple(users), prior=prior)

    config = network(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes))
    shuffled = network(fs.UserProfile(ids[i], stakes[i]) for i in order)
    relabel = {i + 1: ids[i] for i in range(len(stakes))}
    strategies = {i + 1: fs.Strategy.concentrated(s, c)
                  for i, (s, c) in enumerate(zip(stakes, counts))}
    return config, strategies, shuffled, {relabel[u]: s for u, s in strategies.items()}, relabel


def keyed_checks(checks, relabel=None):
    relabel = relabel or {}
    return {(relabel.get(c.user_id, c.user_id), c.oracle_count): (c.payoff_single, c.payoff_mirror)
            for c in checks}


def search(config, relabel=None):
    """The search's answer, or its tightest violation when it is exhausted."""
    diagnostics = {}
    try:
        d_opt, cert = fs.find_d_opt(config, SEARCH, diagnostics=diagnostics)
    except fs.DMaxExceededError as exc:
        tightest = exc.tightest
        return "exhausted", keyed_checks([tightest] if tightest else [], relabel)
    evaluations = {(e["d"], (relabel or {}).get(e["n"], e["n"]), e["c"]):
                   (e["payoff_single"], e["payoff_mirror"]) for e in diagnostics["evaluations"]}
    return d_opt, keyed_checks(cert.checks, relabel), evaluations


@settings(max_examples=40, derandomize=True, deadline=None)
@given(relabelled_networks(), st.sampled_from([1.0, 1.75, 3.5]))
def test_shuffled_and_renumbered_users_give_equal_answers(network, d):
    config, strategies, shuffled, moved, relabel = network
    for user in config.users:
        n, stake = user.user_id, user.total_stake
        counts = range(1, stake + 1)
        assert (fs.payoff.concentrated_payoffs(config, n, [1.0, d], counts).tolist()
                == fs.payoff.concentrated_payoffs(shuffled, relabel[n], [1.0, d], counts).tolist())
        query = fs.PayoffQuery(config, n, strategies[n], d, strategies)
        same = fs.PayoffQuery(shuffled, relabel[n], moved[relabel[n]], d, moved)
        assert fs.expected_payoff_exact(query) == fs.expected_payoff_exact(same)
    assert fs.error_rate_exact(config, strategies) == fs.error_rate_exact(shuffled, moved)
    assert fs.error_rate_exact(config) == fs.error_rate_exact(shuffled)
    assert (keyed_checks(fs.verify_nash(config, d).checks, relabel)
            == keyed_checks(fs.verify_nash(shuffled, d).checks))
    assert search(config, relabel) == search(shuffled)


@pytest.mark.parametrize("d,block", [(1.0, None), (2.28, None), (15.99, None), (2.28, 64)])
def test_amt10_paths_agree_on_every_deviation(fresh_ref_config, monkeypatch, d, block):
    """The certificate, the sweep over all counts, a call for two counts and
    the general payoff give the same number for each (user, count), also when
    64-cell blocks make every query walk its splits in several passes."""
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
    config = fresh_ref_config  # builds its tables at this block size
    checks = keyed_checks(fs.verify_nash(config, d).checks)
    for user in config.users:
        n, stake = user.user_id, user.total_stake
        if stake < 2:
            continue
        swept = fs.payoff.concentrated_payoffs(config, n, [d], range(1, stake + 1))[0].tolist()
        pair = fs.payoff.concentrated_payoffs(config, n, d, [stake, 1]).tolist()
        general = [fs.expected_payoff_exact(fs.PayoffQuery(
            config, n, fs.optimal_allocation(stake, c), d)).value for c in range(1, stake + 1)]
        assert [checks[n, c] for c in range(2, stake + 1)] == [
            (swept[0], mirror) for mirror in swept[1:]]
        assert pair == [swept[-1], swept[0]]
        assert general == swept
