import math

import numpy as np
import pytest

import feedsim as fs
import helpers
import oracle_bruteforce as oracle
from feedsim import enumeration
from feedsim.metrics import CSV_HEADER, sweep_rows_to_csv


def test_perfect_oracles_never_err():
    cfg = fs.SystemConfig(
        num_classes=3,
        confusion=fs.ConfusionMatrix.identity(3),
        users=(fs.UserProfile(1, 4), fs.UserProfile(2, 2)),
    )
    assert fs.error_rate_exact(cfg) == 0.0
    assert fs.error_rate_exact(cfg, {1: fs.Strategy((2, 1, 1))}) == 0.0


@pytest.mark.parametrize("accuracy", [0.6, 0.8, 0.95])
def test_single_voter_error_is_one_minus_accuracy(accuracy):
    """With no rivals the user's report decides every round, with one oracle
    or with one per stake unit."""
    cfg = helpers.symmetric_binary_config([3], accuracy=accuracy)
    assert fs.error_rate_exact(cfg) == pytest.approx(1.0 - accuracy, abs=1e-12)
    mirrored = fs.error_rate_exact(cfg, {1: fs.Strategy.concentrated(3, 3)})
    assert mirrored == pytest.approx(1.0 - accuracy, abs=1e-12)


# 5-6 users whose rivals share multiplicity groups, with mixed oracle
# counts: shapes random_config never draws
GROUPED_CASES = [pytest.param(("grouped", s), id=f"grouped{s}") for s in range(6)]
# oracle counts per user: rival vote vectors that collide across multiplicity
# groups, rivals of distinct counts, and a user who outvotes all the rest
COUNT_CASES = [
    pytest.param(("counts", (1, 1, 1, 2)), id="collide112"),
    pytest.param(("counts", (2, 3, 1, 4, 2)), id="distinct"),
    *helpers.DOMINANT_CASES,
]
TIE_CASES = [pytest.param(("ties", name), id=name) for name in helpers.TIE_NETWORKS]


@pytest.mark.parametrize("seed", [*range(6), *GROUPED_CASES, *COUNT_CASES, *TIE_CASES])
def test_error_rate_matches_bruteforce(seed):
    if isinstance(seed, tuple) and seed[0] == "ties":
        cfg, strategies = helpers.tie_instance(seed[1])
    elif isinstance(seed, tuple) and seed[0] == "counts":
        cfg, strategies = helpers.counts_instance(np.random.default_rng(970), seed[1])
    elif isinstance(seed, tuple):
        cfg, strategies = helpers.grouped_instance(np.random.default_rng(950 + seed[1]))
    else:
        rng = np.random.default_rng(600 + seed)
        cfg = helpers.random_config(rng, uniform_prior=(seed % 2 == 0))
        strategies = {
            u.user_id: fs.optimal_allocation(
                u.total_stake, int(rng.integers(1, u.total_stake + 1))
            )
            for u in cfg.users
        }
    got = fs.error_rate_exact(cfg, strategies)
    want = oracle.error_rate(
        cfg.confusion.entries.tolist(),
        cfg.prior.probabilities.tolist(),
        [strategies[u.user_id].oracle_count for u in cfg.users],
    )
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mirroring", [False, True], ids=["single", "mirroring"])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_small_error_rates_keep_relative_accuracy(eps, mirroring):
    """Near-identity rows give error rates near eps**2; no miss may be formed
    as a difference of larger masses, or it loses its leading digits."""
    matrix = np.full((3, 3), eps / 2)
    np.fill_diagonal(matrix, 1.0 - eps)
    stakes = (2, 1, 1, 3)
    cfg = fs.SystemConfig(
        num_classes=3,
        confusion=fs.ConfusionMatrix(matrix),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
    )
    strategies = {i + 1: fs.Strategy.concentrated(s, s if mirroring else 1)
                  for i, s in enumerate(stakes)}
    got = fs.error_rate_exact(cfg, strategies)
    want = oracle.error_rate(
        matrix.tolist(), cfg.prior.probabilities.tolist(),
        [strategies[u.user_id].oracle_count for u in cfg.users],
    )
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("num_classes, rivals", [(2, 27), (3, 9)])
def test_vote_distribution_merges_across_groups(num_classes, rivals):
    """Rivals of distinct oracle counts (27 binary ones: a network of 28 users):
    merging keeps each distinct vote vector once, at most T + 1 of them for two
    classes (T votes in all), not one per product of compositions."""
    mults = range(1, rivals + 1)
    engine = enumeration.ExactEnumerator(
        helpers.weakly_accurate_matrix(np.random.default_rng(5), num_classes),
        np.full(num_classes, 1.0 / num_classes), mults,
    )
    votes, probs = engine._vote_distribution
    assert len(votes) <= math.comb(sum(mults) + num_classes - 1, num_classes - 1)
    assert len(np.unique(votes, axis=0)) == len(votes)
    assert probs.sum(axis=1) == pytest.approx(np.ones(num_classes), abs=1e-12)


def test_one_group_vote_distribution_is_its_group():
    """With one multiplicity group nothing merges: the vote distribution's
    probabilities are `_groups`' own array, and its votes are held in the
    smallest integer type that holds the rivals' votes."""
    engine = enumeration.ExactEnumerator(
        helpers.weakly_accurate_matrix(np.random.default_rng(5), 4), np.full(4, 0.25), [3] * 6)
    votes, probs = engine._vote_distribution
    comps, group_probs = engine._groups
    assert np.shares_memory(probs, group_probs[0])
    assert votes.dtype == np.uint8
    assert (votes == 3 * comps[0].T).all()


def test_error_rate_mc_identity_and_agreement():
    cfg = fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix.identity(2),
        users=(fs.UserProfile(1, 1), fs.UserProfile(2, 1)),
    )
    value, stderr = fs.error_rate_mc(cfg, samples=1000, seed=0)
    assert value == 0.0 and stderr == 0.0

    hits = 0
    trials = 20
    for seed in range(trials):
        rng = np.random.default_rng(700 + seed)
        random_cfg = helpers.random_config(rng)
        exact = fs.error_rate_exact(random_cfg)
        mc, se = fs.error_rate_mc(random_cfg, samples=40000, seed=seed)
        hits += abs(mc - exact) <= (3 * se if se else 1e-9)
    assert hits >= trials - 1


def test_reference_network_error_mc_cross_check(ref_config):
    strategies = {1: fs.optimal_allocation(8, 8)}
    exact = fs.error_rate_exact(ref_config, strategies)
    mc, se = fs.error_rate_mc(ref_config, strategies, samples=10**6, seed=13)
    assert abs(mc - exact) <= 3 * se


def test_error_rate_mc_deterministic_given_seed():
    cfg = helpers.symmetric_binary_config([2, 1, 1])
    assert fs.error_rate_mc(cfg, samples=5000, seed=4) == fs.error_rate_mc(
        cfg, samples=5000, seed=4
    )


def test_experiment_rows_ordered_by_d_then_c():
    cfg = helpers.symmetric_binary_config([3, 1, 1])
    spec = fs.ExperimentSpec(
        config=cfg, focal_user=1, c_values=(1, 2, 3), d_values=(1.0, 2.0)
    )
    rows = fs.run_experiment(spec)
    assert [(r.d, r.c) for r in rows] == [
        (1.0, 1), (1.0, 2), (1.0, 3), (2.0, 1), (2.0, 2), (2.0, 3)
    ]
    for row in rows:
        assert 0.0 <= row.expected_payoff <= 1.0
        assert 0.0 <= row.error_rate <= 1.0
        assert row.payoff_stderr == 0.0 and row.error_stderr == 0.0


def test_error_rate_constant_across_d():
    """Votes do not depend on the reward exponent."""
    cfg = helpers.symmetric_binary_config([3, 2, 1])
    spec = fs.ExperimentSpec(
        config=cfg, focal_user=1, c_values=(1, 3), d_values=(1.0, 1.7, 4.0)
    )
    rows = fs.run_experiment(spec)
    for c in (1, 3):
        rates = {r.error_rate for r in rows if r.c == c}
        assert len(rates) == 1


def test_error_rate_constant_across_d_monte_carlo():
    cfg = helpers.symmetric_binary_config([2, 1, 1])
    spec = fs.ExperimentSpec(
        config=cfg, focal_user=1, c_values=(1,), d_values=(1.0, 2.0, 3.0),
        method="monte_carlo", samples=2000,
    )
    rows = fs.run_experiment(spec)
    assert len({r.error_rate for r in rows}) == 1


def test_identity_confusion_gives_zero_error_column():
    cfg = fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix.identity(2),
        users=(fs.UserProfile(1, 2), fs.UserProfile(2, 1)),
    )
    spec = fs.ExperimentSpec(
        config=cfg, focal_user=1, c_values=(1, 2), d_values=(1.0, 2.0)
    )
    assert all(r.error_rate == 0.0 for r in fs.run_experiment(spec))


def test_monte_carlo_rows_track_exact():
    cfg = helpers.symmetric_binary_config([3, 2, 2])
    exact_rows = fs.run_experiment(
        fs.ExperimentSpec(config=cfg, focal_user=1, c_values=(1, 3), d_values=(1.5,))
    )
    mc_rows = fs.run_experiment(
        fs.ExperimentSpec(
            config=cfg, focal_user=1, c_values=(1, 3), d_values=(1.5,),
            method="monte_carlo", samples=60000, seed=5,
        )
    )
    for exact, sampled in zip(exact_rows, mc_rows):
        assert abs(sampled.expected_payoff - exact.expected_payoff) <= max(
            4 * sampled.payoff_stderr, 1e-9
        )
        assert abs(sampled.error_rate - exact.error_rate) <= max(
            4 * sampled.error_stderr, 1e-9
        )


def test_spec_validation():
    cfg = helpers.symmetric_binary_config([2, 1])
    with pytest.raises(ValueError):
        fs.ExperimentSpec(config=cfg, focal_user=1, c_values=(3,), d_values=(1.0,))
    with pytest.raises(ValueError):
        fs.ExperimentSpec(config=cfg, focal_user=1, c_values=(1,), d_values=(0.5,))
    with pytest.raises(ValueError):
        fs.ExperimentSpec(config=cfg, focal_user=1, c_values=(), d_values=(1.0,))
    with pytest.raises(ValueError):
        fs.ExperimentSpec(
            config=cfg, focal_user=1, c_values=(1,), d_values=(1.0,), method="nope"
        )


def test_csv_schema_and_formatting(tmp_path):
    rows = [
        fs.SweepRow(c=1, d=1.0, expected_payoff=1 / 3, payoff_stderr=0.0,
                    error_rate=0.104, error_stderr=0.0),
        fs.SweepRow(c=2, d=1.25, expected_payoff=0.5, payoff_stderr=1.5e-4,
                    error_rate=0.2, error_stderr=2e-4),
    ]
    text = sweep_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "c,d,expected_payoff,payoff_stderr,error_rate,error_stderr"
    assert lines[1] == "1,1,0.333333333333,0,0.104,0"
    assert lines[2] == "2,1.25,0.5,0.00015,0.2,0.0002"

    out = tmp_path / "sweep.csv"
    fs.write_sweep_csv(rows, out)
    assert out.read_text() == text
    assert not (tmp_path / "sweep.csv.tmp").exists()


def test_experiment_from_dict_overrides(ref_config):
    spec = fs.metrics.experiment_from_dict(
        ref_config,
        {"focal_user": 1, "c_values": [1, 2], "d_values": [1.0], "seed": 7},
        d_values=(1.0, 2.0),
    )
    assert spec.c_values == (1, 2)
    assert spec.d_values == (1.0, 2.0)
    assert spec.seed == 7
    defaults = fs.metrics.experiment_from_dict(ref_config, None)
    assert defaults.c_values == tuple(range(1, 9))
    assert defaults.focal_user == 1
    aliased = fs.metrics.experiment_from_dict(
        ref_config, {"c_values": [1], "method": "mc", "samples": 10}
    )
    assert aliased.method == "monte_carlo"


def test_spec_accepts_numpy_scalars(ref_config):
    """numpy integers and floats are integers and real numbers like any other."""
    plain = fs.ExperimentSpec(ref_config, 1, range(1, 9), (1.0, 2.28))
    scalars = fs.ExperimentSpec(ref_config, np.int64(1), np.arange(1, 9),
                                (np.float64(1.0), np.float64(2.28)))
    assert fs.run_experiment(scalars) == fs.run_experiment(plain)
    cfg = helpers.symmetric_binary_config([2, 1, 1])
    sampled = [fs.run_experiment(fs.ExperimentSpec(
        cfg, focal, (1, 2), (1.5,), method="mc", samples=samples, seed=seed))
        for focal, samples, seed in [(1, 300, 7), (np.int32(1), np.int64(300), np.uint8(7))]]
    assert sampled[0] == sampled[1]


def test_error_rate_mc_refuses_one_sample(ref_config):
    with pytest.raises(ValueError, match="at least 2 samples"):
        fs.error_rate_mc(ref_config, samples=1)
