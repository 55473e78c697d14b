import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import feedsim as fs


def test_reward_factor_examples():
    assert fs.reward_factor(4, 1, 1, d=1.0) == 4.0
    assert fs.reward_factor(4, 2, 2, d=2.0) == 16.0
    assert fs.reward_factor(9, 1, 2, d=3.0) == 0.0
    assert fs.reward_factor(1, 5, 5, d=7.3) == 1.0


def test_reward_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fs.reward_factor(0, 1, 1, d=1.0)
    with pytest.raises(ValueError):
        fs.reward_factor(4, 1, 1, d=0.9)


def test_exponent_one_is_exactly_linear():
    for stake in range(1, 50):
        assert fs.stake_power(stake, 1.0) == float(stake)


def test_distribute_rewards_examples():
    assert fs.distribute_rewards([3.0, 1.0], 1.0).tolist() == [0.75, 0.25]
    assert fs.distribute_rewards([5.0, 0.0, 0.0], 1.0).tolist() == [1.0, 0.0, 0.0]
    assert fs.distribute_rewards([2.0**3, 1.0, 1.0], 1.0).tolist() == [0.8, 0.1, 0.1]


def test_distribute_rewards_survives_subnormal_factors():
    payoffs = fs.distribute_rewards([2.225073858507e-311], 1.0)
    assert payoffs.tolist() == [1.0]


def test_distribute_rewards_all_zero_is_an_error():
    with pytest.raises(fs.ZeroFactorSumError):
        fs.distribute_rewards([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        fs.distribute_rewards([], 1.0)
    with pytest.raises(ValueError):
        fs.distribute_rewards([-1.0, 2.0], 1.0)


def test_mechanism_params_validation():
    assert fs.MechanismParams().exponent == 1.0
    with pytest.raises(ValueError):
        fs.MechanismParams(exponent=0.5)
    with pytest.raises(ValueError):
        fs.MechanismParams(total_reward=0.0)


@given(
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10).filter(
        lambda f: sum(f) > 0
    ),
    st.floats(0.1, 10.0),
)
def test_budget_balance(factors, reward):
    payoffs = fs.distribute_rewards(factors, reward)
    assert payoffs.sum() == pytest.approx(reward, abs=1e-12)
    assert np.all(payoffs >= 0)


@given(st.integers(1, 40), st.integers(1, 40), st.floats(1.0, 5.0))
def test_factor_superadditivity(a, b, d):
    """(a+b)^d >= a^d + b^d for d >= 1; equality only at d = 1."""
    combined = fs.stake_power(a + b, d)
    split = fs.stake_power(a, d) + fs.stake_power(b, d)
    assert combined >= split - 1e-9 * split
    if d == 1.0:
        assert combined == split


@given(st.lists(st.integers(1, 20), min_size=2, max_size=6))
def test_scale_equivariance_at_d1(stakes):
    base = fs.distribute_rewards([fs.stake_power(s, 1.0) for s in stakes], 1.0)
    doubled = fs.distribute_rewards(
        [fs.stake_power(2 * s, 1.0) for s in stakes], 1.0
    )
    assert np.allclose(base, doubled, atol=1e-12)


@given(st.integers(2, 30), st.floats(1.0, 6.0), st.floats(0.01, 2.0))
def test_factor_monotonicity(stake, d, bump):
    assert fs.stake_power(stake + 1, d) > fs.stake_power(stake, d)
    assert fs.stake_power(stake, d + bump) > fs.stake_power(stake, d)


def test_settle_round_budget_and_zero_factors():
    profile = fs.VoteProfile((1, 2, 1), (2, 1, 1))
    outcome = fs.settle_round(
        profile,
        allocations=[(2, 1), (5,), (1,)],
        decided=1,
        params=fs.MechanismParams(exponent=2.0, total_reward=3.0),
    )
    assert outcome.payoffs.sum() == pytest.approx(3.0, abs=1e-12)
    # the oracle that voted the losing class earns exactly nothing
    assert outcome.factors[2] == 0.0 and outcome.payoffs[2] == 0.0
    assert outcome.per_user_payoffs[1] == 0.0
    assert outcome.per_user_payoffs[0] == pytest.approx(
        outcome.payoffs[0] + outcome.payoffs[1]
    )


def test_factors_whose_sum_overflows_keep_budget_balance():
    """Each factor fits a float but their sum does not: the split divides the
    factors by their largest first, so the reward is still paid out in full."""
    assert fs.distribute_rewards([8.0 ** 341] * 2, 1.0).tolist() == [0.5, 0.5]
    outcome = fs.settle_round(
        fs.VoteProfile((1, 1, 2), (1, 1, 1)),
        allocations=[(8,), (8,), (8,)],
        decided=1,
        params=fs.MechanismParams(exponent=341.0, total_reward=3.0),
    )
    assert outcome.payoffs.tolist() == [1.5, 1.5, 0.0]


def test_settle_round_validates_shapes():
    profile = fs.VoteProfile((1, 2), (2, 1))
    with pytest.raises(ValueError):
        fs.settle_round(profile, [(1,), (1,)], 1, fs.MechanismParams())
    with pytest.raises(ValueError):
        fs.settle_round(profile, [(1, 1)], 1, fs.MechanismParams())
