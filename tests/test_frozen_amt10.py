"""Exact amt10 answers against values frozen from the identity-enumerating
engine that preceded the count-based one (tests/data/amt10_frozen.json).

Brute force in plain Python cannot reach a ten-user, five-class network, so
these frozen numbers are what pins the engine at full size: every (user, c)
concentrated payoff at two exponents, every user's error rate as it mirrors,
and an error rate and a payoff with two rivals mirroring, which exercise
several multiplicity groups at once.
"""

import json
from pathlib import Path

import pytest

import feedsim as fs
from feedsim import enumeration

FROZEN = json.loads((Path(__file__).parent / "data" / "amt10_frozen.json").read_text())
TOL = 1e-12


def _mirrors():
    return {int(user): fs.Strategy.concentrated(stake, stake)
            for user, stake in FROZEN["mirroring"]["users"].items()}


@pytest.mark.parametrize("user", sorted(FROZEN["users"], key=int))
def test_sweep_matches_frozen(ref_config, user):
    want = FROZEN["users"][user]
    stake = ref_config.user(int(user)).total_stake
    rows = fs.run_experiment(fs.ExperimentSpec(
        ref_config, int(user), tuple(range(1, stake + 1)), tuple(FROZEN["d_values"])))
    for d in FROZEN["d_values"]:
        got = [r.expected_payoff for r in rows if r.d == d]
        assert got == pytest.approx(want["payoff"][repr(d)], abs=TOL, rel=0)
    got_error = [r.error_rate for r in rows if r.d == FROZEN["d_values"][0]]
    assert got_error == pytest.approx(want["error_rate"], abs=TOL, rel=0)


def test_error_rate_with_mirroring_rivals_matches_frozen(ref_config):
    got = fs.error_rate_exact(ref_config, _mirrors())
    assert got == pytest.approx(FROZEN["mirroring"]["error_rate"], abs=TOL, rel=0)


def test_payoff_against_mirroring_rivals_matches_frozen(ref_config):
    want = FROZEN["mirroring"]["payoff"]
    stake = ref_config.user(want["user"]).total_stake
    query = fs.PayoffQuery(
        ref_config, want["user"], fs.Strategy.concentrated(stake, want["c"]), want["d"],
        other_strategies=_mirrors())
    got = fs.expected_payoff_exact(query).value
    assert got == pytest.approx(want["value"], abs=TOL, rel=0)


def test_blocked_enumeration_matches_frozen(fresh_ref_config, monkeypatch):
    """Tiny blocks force the engine to loop over state and split blocks; a
    fresh config builds its tables at that block size."""
    monkeypatch.setattr(enumeration, "_BLOCK", 7)
    test_payoff_against_mirroring_rivals_matches_frozen(fresh_ref_config)
    test_sweep_matches_frozen(fresh_ref_config, "1")
