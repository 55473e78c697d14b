import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import feedsim as fs
import helpers
from feedsim import _montecarlo


def test_strict_majority():
    result = fs.majority_vote(fs.VoteProfile((1, 1, 2), (1, 1, 1)), num_classes=2)
    assert result.winners == {1}
    assert result.vote_counts.tolist() == [2, 1]
    assert result.tie_mass.tolist() == [1.0, 0.0]


def test_two_way_tie_splits_uniformly():
    result = fs.majority_vote(fs.VoteProfile((1, 2), (1, 1)), num_classes=2)
    assert result.winners == {1, 2}
    assert result.tie_mass.tolist() == [0.5, 0.5]


def test_mirroring_flips_a_losing_vote():
    # seven oracles: the focal user and two allies on class 1, four on class 2
    reports = (1, 1, 1, 2, 2, 2, 2)
    single = fs.majority_vote(fs.VoteProfile(reports, (1,) * 7), num_classes=2)
    assert single.winners == {2}
    mirrored = fs.majority_vote(
        fs.VoteProfile(reports, (3, 1, 1, 1, 1, 1, 1)), num_classes=2
    )
    assert mirrored.vote_counts.tolist() == [5, 4]
    assert mirrored.winners == {1}


def test_errors_on_empty_or_out_of_range():
    with pytest.raises(ValueError):
        fs.majority_vote(fs.VoteProfile((), ()), num_classes=2)
    with pytest.raises(ValueError):
        fs.majority_vote(fs.VoteProfile((3,), (1,)), num_classes=2)
    with pytest.raises(ValueError):
        fs.VoteProfile((1, 2), (1,))
    with pytest.raises(ValueError):
        fs.VoteProfile((1,), (0,))


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=8
    ),
    st.randoms(use_true_random=False),
)
def test_permutation_invariance(votes, pyrandom):
    shuffled = list(votes)
    pyrandom.shuffle(shuffled)
    a = fs.majority_vote(
        fs.VoteProfile(*zip(*votes)), num_classes=4
    )
    b = fs.majority_vote(
        fs.VoteProfile(*zip(*shuffled)), num_classes=4
    )
    assert a.winners == b.winners
    assert a.vote_counts.tolist() == b.vote_counts.tolist()
    assert a.tie_mass.tolist() == b.tie_mass.tolist()


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=8
    )
)
def test_replication_equivalence(votes):
    """One user with multiplicity c aggregates like c single-vote users."""
    reports, mults = zip(*votes)
    grouped = fs.majority_vote(fs.VoteProfile(reports, mults), num_classes=4)
    flat_reports = [r for r, m in votes for _ in range(m)]
    flat = fs.majority_vote(
        fs.VoteProfile(tuple(flat_reports), (1,) * len(flat_reports)), num_classes=4
    )
    assert grouped.winners == flat.winners
    assert grouped.vote_counts.tolist() == flat.vote_counts.tolist()


def test_vote_counts_sum_to_total_multiplicity():
    profile = fs.VoteProfile((1, 3, 3), (2, 4, 1))
    result = fs.majority_vote(profile, num_classes=3)
    assert result.vote_counts.sum() == 7
    assert result.tie_mass.sum() == pytest.approx(1.0)


def test_sampled_tie_break_matches_tie_mass():
    rng = np.random.default_rng(3)
    profile = fs.VoteProfile((1, 2), (1, 1))
    n = 20000
    hits = sum(
        fs.majority_vote(profile, 2, rng).sampled_output == 1 for _ in range(n)
    )
    sigma = np.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_no_rng_means_no_sample():
    result = fs.majority_vote(fs.VoteProfile((2,), (1,)), num_classes=2)
    assert result.sampled_output is None
    assert result.winners == {2}


@pytest.mark.parametrize("name", sorted(helpers.TIE_NETWORKS))
def test_a_kernel_round_is_the_scalar_round(name):
    """One `mc_rounds` round equals the round that `sample_report`,
    `majority_vote` and `settle_round` make from the same generator: the
    same draws, the same tie-break and the same focal share."""
    cfg, strategies = helpers.tie_instance(name)
    k, users = cfg.num_classes, cfg.num_users
    prior = cfg.prior.probabilities
    allocations = [strategies[u.user_id].allocation for u in cfg.users]
    mults = tuple(len(a) for a in allocations)
    factors = np.array([fs.incentive.allocation_factor(a, 2.0) for a in allocations])
    params = fs.MechanismParams(exponent=2.0)
    for seed in range(60):
        (truth, reports, output), = _montecarlo.mc_rounds(
            cfg.confusion.entries, prior, mults, 1, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        scalar_truth = int(_montecarlo._draw(prior, rng.random(1))[0]) + 1
        scalar_reports = fs.sample_report(cfg.confusion, scalar_truth, rng, size=users)
        profile = fs.VoteProfile(tuple(scalar_reports), mults)
        decided = fs.majority_vote(profile, k, rng).sampled_output
        assert (scalar_truth, scalar_reports.tolist(), decided) == (
            truth[0] + 1, (reports[0] + 1).tolist(), output[0] + 1)
        share = _montecarlo._split(reports == output[:, None], factors, 0)[0]
        settled = fs.settle_round(profile, allocations, decided, params)
        assert settled.per_user_payoffs[0] == pytest.approx(share, rel=1e-12, abs=1e-15)
