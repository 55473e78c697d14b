"""The Monte Carlo round kernel against its per-user loop reference, and
amt10's sampled answers against values frozen from that loop kernel.

`mc_rounds` must draw the same uniforms in the same order and batches as
`helpers.reference_mc_rounds`, so every seed keeps its stream: the truth,
every user's report and the decided output must agree array for array.
"""

import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import feedsim as fs
import helpers
from feedsim import _montecarlo

FROZEN = json.loads(
    (Path(__file__).parent / "data" / "amt10_mc_frozen.json").read_text())


def assert_same_stream(confusion, prior, mults, samples, make_rng):
    got = _montecarlo.mc_rounds(confusion, prior, mults, samples, make_rng())
    want = helpers.reference_mc_rounds(confusion, prior, mults, samples, make_rng())
    batches = 0
    for new, old in zip(got, want, strict=True):
        for name, a, b in zip(("truth", "reports", "output"), new, old):
            assert np.array_equal(a, b), name
        batches += 1
    assert batches == -(-samples // _montecarlo._BATCH)


@pytest.mark.parametrize("seed", range(12))
def test_stream_matches_loop_kernel_on_random_networks(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    users = int(rng.integers(1, 9))
    confusion = rng.dirichlet(np.ones(k), size=k)
    prior = rng.dirichlet(np.ones(k))
    mults = [int(m) for m in rng.integers(1, 5, size=users)]
    assert_same_stream(confusion, prior, mults, 3000,
                       lambda: np.random.default_rng(100 + seed))


def _uniform_rows(k):
    return np.full((k, k), 1.0 / k)


@pytest.mark.parametrize("confusion,mults", [
    (np.eye(3), [1, 1, 1]),                         # thresholds at exactly 0 and 1
    (_uniform_rows(3), [1, 1, 1]),                  # three-way splits
    (_uniform_rows(4), [2, 1, 2, 1, 3, 1]),
    (_uniform_rows(2), [1, 1, 1, 1]),               # two classes, even vote totals
    (np.array([[0.7, 0.3], [0.4, 0.6]]), [2, 1, 1, 3, 1]),
], ids=["identity", "uniform3", "uniform4", "binary-even", "binary-weighted"])
def test_stream_matches_loop_kernel_with_many_ties(confusion, mults):
    k = confusion.shape[0]
    assert_same_stream(confusion, np.full(k, 1.0 / k), mults, 4000,
                       lambda: np.random.default_rng(5))


class _NearOneUniforms:
    """A generator whose draws include the largest double below 1, so rows
    that sum to an ulp below 1 are crossed at their last threshold."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        u = self._rng.random(size)
        u[self._rng.random(size) < 0.2] = np.nextafter(1.0, 0.0)
        return u


def test_stream_matches_loop_kernel_when_rows_sum_below_one():
    below = np.nextafter(1.0, 0.0)
    confusion = np.array([[0.25, 0.25, 0.0], [0.0, 0.5, 0.0], [0.125, 0.125, 0.5]])
    confusion[:, -1] = below - confusion[:, :-1].sum(axis=1)
    prior = np.array([0.5, 0.25, 0.0])
    prior[-1] = below - prior[:-1].sum()
    assert np.all(np.cumsum(confusion, axis=1)[:, -1] < 1.0)
    assert np.cumsum(prior)[-1] < 1.0
    assert_same_stream(confusion, prior, [1, 2, 1, 1], 5000,
                       lambda: _NearOneUniforms(3))


def test_stream_matches_loop_kernel_across_batches(monkeypatch):
    confusion = helpers.weakly_accurate_matrix(np.random.default_rng(1), 4)
    prior = np.full(4, 0.25)
    assert_same_stream(confusion, prior, [3, 1, 1, 2], _montecarlo._BATCH + 1,
                       lambda: np.random.default_rng(9))
    monkeypatch.setattr(_montecarlo, "_BATCH", 7)
    assert_same_stream(confusion, prior, [3, 1, 1, 2], 50,
                       lambda: np.random.default_rng(9))


@pytest.mark.parametrize("mults,cells", [
    ([3, 1, 1, 2], 28),   # 7-round blocks: each 50-round batch ends in a 1-round block
    ([3, 1, 2], 21),      # one user per multiplicity group, given out of order
    ([3, 1, 2], 1),       # fewer cells than users: one round per block
])
def test_stream_matches_loop_kernel_across_blocks(monkeypatch, mults, cells):
    confusion = helpers.weakly_accurate_matrix(np.random.default_rng(1), 4)
    monkeypatch.setattr(_montecarlo, "_BATCH", 50)
    monkeypatch.setattr(_montecarlo, "_CELLS", cells)
    assert_same_stream(confusion, np.full(4, 0.25), mults, 123,
                       lambda: np.random.default_rng(9))


def test_stream_matches_loop_kernel_when_a_group_outgrows_8_bits():
    # 300 single-oracle users form one group, and most of them reach the first
    # threshold whenever the truth is not class 0: a uint8 count would wrap
    confusion = helpers.weakly_accurate_matrix(np.random.default_rng(3), 3)
    assert_same_stream(confusion, np.full(3, 1 / 3), [1] * 300, 500,
                       lambda: np.random.default_rng(7))


def test_stream_matches_loop_kernel_when_cells_outgrow_16_bits():
    # a short last batch whose largest (class, round) cell, n * (K-1), needs
    # more than 16 bits while n itself fits in 16
    k, tail = 5, 34464
    assert tail < 1 << 16 < tail * (k - 1)
    confusion = helpers.weakly_accurate_matrix(np.random.default_rng(2), k)
    assert_same_stream(confusion, np.full(k, 1.0 / k), [2, 1, 1, 1],
                       _montecarlo._BATCH + tail, lambda: np.random.default_rng(12345))


def test_stream_matches_loop_kernel_with_16_bit_reports():
    # 257 classes need uint16 reports, fed one threshold at a time; half of
    # every row sits on the last class, so reports above 255 are common
    k = 257
    confusion = np.full((k, k), 0.5 / (k - 1))
    confusion[:, -1] = 0.5
    prior = np.random.default_rng(4).dirichlet(np.ones(k))
    mults = [1, 2, 1, 1, 3]
    assert_same_stream(confusion, prior, mults, 400, lambda: np.random.default_rng(8))
    (_, reports, _), = _montecarlo.mc_rounds(confusion, prior, mults, 400,
                                             np.random.default_rng(8))
    assert reports.dtype == np.uint16 and reports.max() == k - 1


def test_a_batch_draws_its_report_uniforms_block_by_block():
    """A full batch of 200 users holds 13 MB of reports; its 105 MB of report
    uniforms are drawn a block at a time, so it never holds them at once."""
    rounds = _montecarlo.mc_rounds(_uniform_rows(5), np.full(5, 0.2), [1] * 200,
                                   _montecarlo._BATCH, np.random.default_rng(0))
    tracemalloc.start()
    try:
        next(rounds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_one_user_network_outputs_its_report():
    confusion = helpers.weakly_accurate_matrix(np.random.default_rng(6), 3)
    prior = np.array([0.2, 0.5, 0.3])
    assert_same_stream(confusion, prior, [3], 2000, lambda: np.random.default_rng(2))
    for _, reports, output in _montecarlo.mc_rounds(confusion, prior, [3], 2000,
                                                    np.random.default_rng(2)):
        assert np.array_equal(output, reports[:, 0])


@pytest.mark.parametrize(
    "case", FROZEN["payoff"], ids=lambda c: f"s{c['seed']}c{c['c']}d{c['d']}")
def test_amt10_payoff_mc_matches_frozen(ref_config, case):
    stake = ref_config.user(FROZEN["user"]).total_stake
    query = fs.PayoffQuery(ref_config, FROZEN["user"],
                           fs.optimal_allocation(stake, case["c"]), case["d"])
    got = fs.expected_payoff_mc(query, samples=FROZEN["samples"], seed=case["seed"])
    assert (got.value, got.std_error) == (case["value"], case["std_error"])


def test_payoff_mc_is_finite_at_the_largest_rewards(ref_config):
    """The moments are taken of the share, so a reward whose square overflows
    still gives a finite estimate: exactly the reward times the unit one."""
    stake = ref_config.user(1).total_stake
    estimates = {}
    for reward in (1.0, 1e300):
        config = dataclasses.replace(ref_config, total_reward=reward)
        assert fs.validate_config(config).is_valid
        query = fs.PayoffQuery(config, 1, fs.optimal_allocation(stake, 8), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates[reward] = fs.expected_payoff_mc(query, samples=5000, seed=3)
    unit, large = estimates[1.0], estimates[1e300]
    assert np.isfinite([large.value, large.std_error]).all() and large.std_error > 0
    assert (large.value, large.std_error) == (1e300 * unit.value, 1e300 * unit.std_error)


@pytest.mark.parametrize("case", FROZEN["error_rate"], ids=lambda c: f"s{c['seed']}")
def test_amt10_error_rate_mc_matches_frozen(ref_config, case):
    stake = ref_config.user(FROZEN["user"]).total_stake
    mirror = {FROZEN["user"]: fs.Strategy.concentrated(stake, case["c"])}
    got = fs.error_rate_mc(ref_config, mirror, samples=FROZEN["samples"],
                           seed=case["seed"])
    assert got == (case["value"], case["std_error"])
