from collections import Counter

import numpy as np
import pytest

import feedsim as fs
import helpers
from feedsim import enumeration, solver
import oracle_bruteforce as oracle

# frozen from tests/oracle_bruteforce.py (run standalone before the build):
#   d_opt stakes(2,1,1) p=0.8 eps=0.05 -> 1.6
FROZEN_DOPT_211 = 1.6


@pytest.fixture
def trio_config():
    return helpers.symmetric_binary_config([2, 1, 1])


def test_all_stake_one_is_vacuously_nash():
    cfg = helpers.symmetric_binary_config([1, 1, 1])
    d_opt, cert = fs.find_d_opt(cfg)
    assert d_opt == 1.0
    assert cert.satisfied and cert.checks == ()
    assert fs.verify_nash(cfg, 1.0).satisfied


def test_amt10_d_opt_is_the_grid_value(ref_config):
    """The headline answer is the grid value 2.28, and every grid row the
    exact search visits holds all 45 of its checks."""
    diag = {}
    d_opt, cert = fs.find_d_opt(ref_config, diagnostics=diag)
    assert d_opt == 2.28 and type(d_opt) is float
    assert cert.d == 2.28 and len(cert.checks) == 45
    assert len(diag["evaluations"]) == diag["grid_points"] * 45


@pytest.mark.parametrize("block", [None, 64], ids=["default", "block64"])
def test_amt10_evaluations_match_verify_nash_row_by_row(fresh_ref_config, monkeypatch, block):
    """The evaluations read off the search's blocks of rows equal the checks
    verify_nash computes one exponent at a time, bit for bit. At 64 cells a
    block, every amt10 payoff query walks its splits in several passes, on a
    config whose engine builds its tables at that block size."""
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
    diag = {}
    fs.find_d_opt(fresh_ref_config, diagnostics=diag)
    visited = sorted({e["d"] for e in diag["evaluations"]})
    assert len(visited) == diag["grid_points"] == 129
    rebuilt = [
        {"d": d, **check.to_dict(), "holds": check.holds}
        for d in visited
        for check in fs.verify_nash(fresh_ref_config, d).checks
    ]
    assert diag["evaluations"] == rebuilt


def test_one_engine_call_per_distinct_stake(fresh_ref_config, monkeypatch):
    """amt10's stakes 8,5,3,8,4,7,6,5,7,2 take 7 payoff calls a block, and
    the first builds the engine's one win table, which every count reads. A
    second search on the same config reads the table the first one built."""
    calls = helpers.count_engine_work(monkeypatch)
    diag = {}
    # starting 15 steps below the answer, the search is one 16-row block
    settings = fs.SolverSettings(starting_d=2.13)
    d_opt, _ = fs.find_d_opt(fresh_ref_config, settings, diagnostics=diag)
    assert d_opt == 2.28 and diag["grid_points"] == 16
    assert calls == {"__init__": 1, "_groups": 1, "payoffs": 7, "_win_tables": 1}
    assert fs.find_d_opt(fresh_ref_config, settings)[0] == 2.28
    assert calls == {"__init__": 1, "_groups": 1, "payoffs": 14, "_win_tables": 1}


def test_a_refusal_does_not_depend_on_user_order(ref_config, monkeypatch):
    """The engine prices the call that builds its win table by that call's
    counts: one amt10 row costs 3.5e4 cells from stake 8 and 1.1e4 from
    stake 2. The search sends the largest stake first, so under a budget
    between the two the row is sampled whichever stake user 1 holds."""
    monkeypatch.setattr(enumeration, "_BUDGET", 20_000)
    sampled = []
    monkeypatch.setattr(solver._Gaps, "mc_check",
                        lambda gaps, *check: sampled.append(check) or (0.0, 0.0))
    stakes = [u.total_stake for u in ref_config.users]
    for order in (stakes, stakes[::-1]):
        sampled.clear()
        users = tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(order))
        assert fs.verify_nash(fs.SystemConfig(5, ref_config.confusion, users), 2.0).satisfied
        assert len(sampled) == 28


@pytest.mark.parametrize("d,samples", [(1.0, None), (2.27, None), (2.28, None), (2.28, 200)],
                         ids=["1.0", "2.27", "2.28", "2.28-sampled"])
def test_users_of_equal_stake_get_equal_checks(fresh_ref_config, monkeypatch, d, samples):
    """On both routes the lowest-id user of a stake answers for the others.
    With the engine refused, the row samples each of amt10's 28 distinct
    (stake, c) once, not each of its 45 deviations."""
    sampled = Counter()
    if samples:
        monkeypatch.setattr(enumeration, "_BUDGET", 1)
        monkeypatch.setattr(solver, "DEFAULT_MC_SAMPLES", samples)
        mc_check = solver._Gaps.mc_check

        def counted(gaps, user_id, c, *args):
            sampled[fresh_ref_config.user(user_id).total_stake, c] += 1
            return mc_check(gaps, user_id, c, *args)

        monkeypatch.setattr(solver._Gaps, "mc_check", counted)
    cert = fs.verify_nash(fresh_ref_config, d)
    assert len(cert.checks) == 45
    if samples:
        assert len(sampled) == 28 and set(sampled.values()) == {1}
    per_user = {}
    for check in cert.checks:
        per_user.setdefault(check.user_id, []).append(
            (check.oracle_count, check.payoff_single, check.payoff_mirror))
    for first, twin in [(1, 4), (2, 8), (6, 9)]:
        assert per_user[first] == per_user[twin]


@pytest.mark.parametrize("stakes", [[2, 2, 1, 1], [3, 3, 2, 1, 1], [2, 2, 2, 1]])
def test_find_d_opt_with_equal_stakes_matches_bruteforce_grid(stakes):
    cfg = helpers.symmetric_binary_config(stakes)
    d_opt, _ = fs.find_d_opt(cfg, fs.SolverSettings(epsilon=0.1))
    want = oracle.d_opt_grid(
        cfg.confusion.entries.tolist(), cfg.prior.probabilities.tolist(), stakes,
        eps=0.1, d_max=16.0,
    )
    # grid indices, not floats: the oracle accumulates start + i * eps unrounded
    assert round((d_opt - 1.0) / 0.1) == round((want - 1.0) / 0.1)


def test_sampled_partial_rows_report_their_reversals(monkeypatch):
    """A sampled row stops at its first violation; the
    reversals still follow from the evaluations recorded. Few samples and no
    noise margin make checks near the answer flip between rows."""
    monkeypatch.setattr(enumeration, "_BUDGET", 1)
    monkeypatch.setattr(solver, "DEFAULT_MC_SAMPLES", 300)
    monkeypatch.setattr(solver, "_MC_MARGIN", 0.0)
    monkeypatch.setattr(solver, "DEFAULT_SEED", 2)
    cfg = helpers.symmetric_binary_config([3, 2, 1])
    settings = fs.SolverSettings(epsilon=0.02)
    diag = {}
    fs.find_d_opt(cfg, settings, diagnostics=diag)
    evaluations = diag["evaluations"]
    per_row = [sum(e["d"] == d for e in evaluations) for d in {e["d"] for e in evaluations}]
    assert min(per_row) < 3 == max(per_row)  # some rows are partial
    held_at, want = {}, []
    for e in evaluations:
        pair = (e["n"], e["c"])
        if e["holds"]:
            held_at.setdefault(pair, e["d"])
        elif pair in held_at:
            want.append({"n": e["n"], "c": e["c"], "held_at": held_at.pop(pair),
                         "failed_at": e["d"]})
    assert want and diag["reversals"] == sorted(want, key=lambda r: (r["n"], r["c"]))


def test_twelve_users_solve_exactly(net12_config):
    """The default search on net12 takes the exact route: every row holds
    all 51 deviations, with no sampled partial rows."""
    diag = {}
    d_opt, cert = fs.find_d_opt(net12_config, diagnostics=diag)
    assert d_opt == 1.96 and cert.satisfied and len(cert.checks) == 51
    per_row = Counter(e["d"] for e in diag["evaluations"])
    assert len(per_row) == diag["grid_points"] == 97
    assert set(per_row.values()) == {51}


def test_find_d_opt_matches_frozen_oracle_value(trio_config):
    settings = fs.SolverSettings(epsilon=0.05)
    d_opt, cert = fs.find_d_opt(trio_config, settings)
    assert d_opt == FROZEN_DOPT_211
    assert cert.satisfied
    assert cert.d == d_opt
    # certificate covers exactly the feasible deviations: user 1 with c=2
    assert [(c.user_id, c.oracle_count) for c in cert.checks] == [(1, 2)]


@pytest.mark.parametrize("seed", range(3))
def test_find_d_opt_matches_bruteforce_grid(seed):
    rng = np.random.default_rng(400 + seed)
    cfg = helpers.random_solvable_config(rng, max_users=3, max_classes=2)
    settings = fs.SolverSettings(epsilon=0.1, d_max=24.0)
    d_opt, _ = fs.find_d_opt(cfg, settings)
    want = oracle.d_opt_grid(
        cfg.confusion.entries.tolist(),
        cfg.prior.probabilities.tolist(),
        list(cfg.stakes),
        eps=0.1,
        d_max=24.0,
    )
    assert d_opt == want


def test_minimality_on_the_grid(trio_config):
    settings = fs.SolverSettings(epsilon=0.05)
    d_opt, _ = fs.find_d_opt(trio_config, settings)
    at = fs.verify_nash(trio_config, d_opt)
    assert at.satisfied and at.tightest_violation() is None
    below = fs.verify_nash(trio_config, d_opt - settings.epsilon)
    assert not below.satisfied
    tightest = below.tightest_violation()
    assert tightest is not None and not tightest.holds


def test_verify_nash_reports_all_checks(trio_config):
    cert = fs.verify_nash(trio_config, 1.0)
    assert not cert.satisfied
    assert len(cert.checks) == 1
    assert cert.checks[0].payoff_mirror > cert.checks[0].payoff_single
    doc = cert.to_dict()
    assert set(doc) == {"d", "checks", "satisfied"}
    assert set(doc["checks"][0]) == {"n", "c", "payoff_single", "payoff_mirror"}


@pytest.mark.parametrize("d", [1.4, 2.0])
def test_sampled_verify_nash_is_the_one_row_search(monkeypatch, d):
    """With the engine refused, verify_nash samples every deviation, past a
    violation too. Where that certificate holds, it is the one the search
    returns over the one-row grid {d}, bit for bit."""
    exact = fs.verify_nash(helpers.symmetric_binary_config([3, 2, 1]), d)
    monkeypatch.setattr(enumeration, "_BUDGET", 1)
    monkeypatch.setattr(solver, "DEFAULT_MC_SAMPLES", 2000)
    cfg = helpers.symmetric_binary_config([3, 2, 1])
    cert = fs.verify_nash(cfg, d)
    assert [(c.user_id, c.oracle_count) for c in cert.checks] == [(1, 2), (1, 3), (2, 2)]
    assert cert.satisfied == exact.satisfied == (d == 2.0)
    assert all(c.payoff_single != e.payoff_single for c, e in zip(cert.checks, exact.checks))
    if cert.satisfied:
        grid = fs.SolverSettings(starting_d=d, epsilon=1.0, d_max=d + 0.5)
        assert fs.find_d_opt(cfg, grid) == (d, cert)


def test_verify_nash_rejects_small_exponent(trio_config):
    with pytest.raises(ValueError):
        fs.verify_nash(trio_config, 0.5)


def test_oracle_stake_variant_bit_identical(trio_config):
    settings = fs.SolverSettings(epsilon=0.05)
    d_users, cert_users = fs.find_d_opt(trio_config, settings)
    d_oracles, cert_oracles = fs.find_d_opt_from_oracle_stakes(
        [2, 1, 1], trio_config.confusion, 2, settings
    )
    assert d_users == d_oracles
    assert cert_users.to_dict() == cert_oracles.to_dict()


def test_oracle_stake_variant_all_ones():
    cfg = helpers.symmetric_binary_config([1, 1, 1])
    d_opt, cert = fs.find_d_opt_from_oracle_stakes([1, 1, 1], cfg.confusion, 2)
    assert d_opt == 1.0 and cert.satisfied


def test_rows_past_the_answer_may_overflow():
    """1000 ** d overflows from d = 103 on; an answer at d = 100 is still
    found, and a search that reaches an overflowing row raises."""
    cfg = helpers.symmetric_binary_config([1000, 1, 1], accuracy=1.0)
    settings = fs.SolverSettings(starting_d=100.0, epsilon=1.0, d_max=400.0)
    assert fs.find_d_opt(cfg, settings)[0] == 100.0
    with pytest.raises(OverflowError):
        fs.find_d_opt(cfg, fs.SolverSettings(starting_d=103.0, epsilon=1.0, d_max=400.0))


def test_d_max_exhaustion_reports_tightest_check(trio_config):
    with pytest.raises(fs.DMaxExceededError) as info:
        fs.find_d_opt(trio_config, fs.SolverSettings(epsilon=0.05, d_max=1.3))
    tightest = info.value.tightest
    assert tightest is not None
    assert (tightest.user_id, tightest.oracle_count) == (1, 2)
    assert tightest.payoff_mirror > tightest.payoff_single
    assert tightest == fs.verify_nash(trio_config, 1.3).tightest_violation()


@pytest.mark.parametrize("seed", range(3))
def test_no_pass_then_fail_reversals_on_full_sweeps(seed):
    rng = np.random.default_rng(500 + seed)
    cfg = helpers.random_solvable_config(rng, max_users=3)
    diag = {}
    d_opt, _ = fs.find_d_opt(
        cfg, fs.SolverSettings(epsilon=0.05, d_max=24.0),
        diagnostics=diag,
    )
    assert diag["reversals"] == []
    assert diag["grid_points"] >= 1
    final_sweep = [e for e in diag["evaluations"] if e["d"] == d_opt]
    assert final_sweep and all(e["holds"] for e in final_sweep)


def test_settings_validation():
    with pytest.raises(ValueError):
        fs.SolverSettings(epsilon=0.0)
    with pytest.raises(ValueError):
        fs.SolverSettings(d_max=0.5)
    with pytest.raises(ValueError):
        fs.SolverSettings(starting_d=0.9, d_max=2.0)
    # grid rows are rounded to 12 decimals: a finer step would repeat rows
    with pytest.raises(ValueError):
        fs.SolverSettings(epsilon=1e-13)
    assert fs.SolverSettings(epsilon=1e-12).epsilon == 1e-12


def test_mc_fallback_respects_noise_margin(trio_config, monkeypatch):
    """With a tiny budget the solver samples; the margin keeps d at the exact
    value instead of inflating it past sampling noise."""
    monkeypatch.setattr(enumeration, "_BUDGET", 1)
    monkeypatch.setattr(solver, "DEFAULT_MC_SAMPLES", 60000)
    monkeypatch.setattr(solver, "DEFAULT_SEED", 3)
    settings = fs.SolverSettings(epsilon=0.05)
    d_opt, cert = fs.find_d_opt(trio_config, settings)
    assert abs(d_opt - FROZEN_DOPT_211) <= 3 * settings.epsilon
    assert cert.satisfied
