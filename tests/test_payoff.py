import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import feedsim as fs
import helpers
import oracle_bruteforce as oracle
from feedsim import enumeration
from feedsim.payoff import concentrated_payoffs

# frozen from tests/oracle_bruteforce.py (run standalone before the build):
#   payoff N=3 K=2 stakes(1,1,1) p=0.8 d=1 focal=0 -> 0.33333333333333337
FROZEN_SYMMETRIC_TRIO_PAYOFF = 0.33333333333333337
#   best c for stakes(4,1,1): d=1 -> 3, d=3 -> 3 (3 and 4 tie at d=1)
FROZEN_BEST_C_411 = {1.0: 3, 3.0: 3}


def test_optimal_allocation_examples():
    assert fs.optimal_allocation(8, 3).allocation == (6, 1, 1)
    assert fs.optimal_allocation(5, 1).allocation == (5,)
    assert fs.optimal_allocation(4, 4).allocation == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        fs.optimal_allocation(3, 4)


def test_sole_participant_takes_the_whole_reward():
    for num_classes, d in ((2, 1.0), (5, 2.5)):
        cfg = fs.SystemConfig(
            num_classes=num_classes,
            confusion=fs.ConfusionMatrix.identity(num_classes),
            users=(fs.UserProfile(1, 3),),
        )
        query = fs.PayoffQuery(cfg, 1, fs.Strategy.single(3), d)
        assert fs.expected_payoff_exact(query).value == pytest.approx(1.0, abs=1e-15)
        mc = fs.expected_payoff_mc(query, samples=100, seed=0)
        assert mc.value == 1.0 and mc.std_error == 0.0


def test_certain_reports_need_one_split():
    """With one class every rival matches the focal report, so the payoff is
    the plain factor share; 40 distinct stakes would be 2^39 rival subsets."""
    stakes = range(1, 41)
    cfg = fs.SystemConfig(
        num_classes=1,
        confusion=fs.ConfusionMatrix.identity(1),
        users=tuple(fs.UserProfile(i, s) for i, s in enumerate(stakes, start=1)),
    )
    d = 1.5
    query = fs.PayoffQuery(cfg, 40, fs.Strategy.single(40), d)
    expected = 40**d / sum(s**d for s in stakes)
    assert fs.expected_payoff_exact(query).value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("stakes,d", [((3, 2), 1.0), ((3, 2), 2.0), ((1, 1), 4.0)])
def test_perfect_oracles_split_by_factor(stakes, d):
    cfg = fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix.identity(2),
        users=(fs.UserProfile(1, stakes[0]), fs.UserProfile(2, stakes[1])),
    )
    query = fs.PayoffQuery(cfg, 1, fs.Strategy.single(stakes[0]), d)
    expected = stakes[0] ** d / (stakes[0] ** d + stakes[1] ** d)
    assert fs.expected_payoff_exact(query).value == pytest.approx(expected, abs=1e-15)


def test_frozen_symmetric_trio_value():
    cfg = helpers.symmetric_binary_config([1, 1, 1])
    query = fs.PayoffQuery(cfg, 1, fs.Strategy.single(1), 1.0)
    value = fs.expected_payoff_exact(query).value
    assert value == pytest.approx(FROZEN_SYMMETRIC_TRIO_PAYOFF, abs=1e-12)


# 5-6 users whose rivals share (multiplicity, factor) groups, with mixed
# oracle counts: shapes random_config never draws
GROUPED_CASES = [pytest.param(("grouped", s), id=f"grouped{s}") for s in range(6)]
TIE_CASES = [pytest.param(("ties", name), id=name) for name in helpers.TIE_NETWORKS]


@pytest.mark.parametrize("seed", [*range(8), *GROUPED_CASES, *TIE_CASES, *helpers.DOMINANT_CASES])
def test_exact_matches_bruteforce_on_random_instances(seed):
    focal = None
    if isinstance(seed, tuple) and seed[0] == "ties":
        rng = np.random.default_rng(990)
        cfg, strategies = helpers.tie_instance(seed[1])
    elif isinstance(seed, tuple) and seed[0] == "counts":
        rng = np.random.default_rng(985)
        cfg, strategies = helpers.counts_instance(rng, seed[1])
        focal = 1
    elif isinstance(seed, tuple):
        rng = np.random.default_rng(900 + seed[1])
        cfg, strategies = helpers.grouped_instance(rng)
    else:
        rng = np.random.default_rng(seed)
        cfg = helpers.random_config(rng, uniform_prior=(seed % 2 == 0))
        strategies = {}
        for user in cfg.users:
            c = int(rng.integers(1, user.total_stake + 1))
            strategies[user.user_id] = fs.optimal_allocation(user.total_stake, c)
    focal = focal or int(rng.integers(1, cfg.num_users + 1))
    d = float(rng.uniform(1.0, 3.0))
    query = fs.PayoffQuery(
        cfg,
        focal,
        strategies[focal],
        d,
        other_strategies={k: v for k, v in strategies.items() if k != focal},
    )
    got = fs.expected_payoff_exact(query).value
    want = oracle.expected_payoff(
        cfg.confusion.entries.tolist(),
        cfg.prior.probabilities.tolist(),
        [strategies[u.user_id].allocation for u in cfg.users],
        focal - 1,
        d,
    )
    assert got == pytest.approx(want, abs=1e-11)
    assert 0.0 <= got <= cfg.total_reward + 1e-12


ROW_CASES = [pytest.param(("amt10", u), id=f"amt10-user{u}") for u in (1, 7)] + [
    pytest.param(("grouped", s), id=f"grouped{s}") for s in range(3)]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("case", ROW_CASES)
def test_batched_rows_match_one_row_calls(fresh_ref_config, monkeypatch, case, block):
    """One engine call over rows of exponents equals one one-row call per row;
    tiny blocks walk the states and the splits in many passes."""
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
    if case[0] == "amt10":
        cfg, focal = fresh_ref_config, case[1]
        strategies = cfg.default_strategies()
    else:
        rng = np.random.default_rng(900 + case[1])
        cfg, strategies = helpers.grouped_instance(rng)
        focal = int(rng.integers(1, cfg.num_users + 1))
    rivals = [strategies[u.user_id] for u in cfg.users if u.user_id != focal]
    engine = enumeration.ExactEnumerator(
        cfg.confusion.entries, cfg.prior.probabilities, [s.oracle_count for s in rivals])
    stake = cfg.user(focal).total_stake
    counts = range(1, stake + 1)
    ds = (1.0, 2.27, 2.28, 16.0)
    focal_rows = [[fs.incentive.allocation_factor(fs.optimal_allocation(stake, c).allocation, d)
                   for c in counts] for d in ds]
    rival_rows = [[fs.incentive.allocation_factor(s.allocation, d) for s in rivals] for d in ds]
    batched = engine.payoffs(counts, focal_rows, rival_rows)
    assert batched.shape == (len(ds), stake)
    for got, f, r in zip(batched, focal_rows, rival_rows):
        assert got == pytest.approx(engine.payoffs(counts, [f], [r])[0], abs=1e-15, rel=0)


@pytest.mark.parametrize("block", [None, 64])
def test_sweep_of_many_exponents_matches_one_row_calls(fresh_ref_config, monkeypatch, block):
    """A sweep row's payoffs do not depend on the rows that share its call,
    also when the rows are taken a few at a time to bound each pass, on a
    config whose engine builds its tables at that block size."""
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
    config = fresh_ref_config  # builds its tables at this block size
    ds = [round(1.0 + 0.05 * i, 12) for i in range(64)]
    counts = range(1, config.user(1).total_stake + 1)
    swept = fs.payoff.concentrated_payoffs(config, 1, ds, counts)
    assert swept.shape == (len(ds), len(counts))
    for got, d in zip(swept, ds):
        assert got.tolist() == fs.payoff.concentrated_payoffs(config, 1, d, counts).tolist()


def rival_population(case, ref_config):
    """(confusion, prior, rival oracle counts) of one engine."""
    if case == "amt10":
        return ref_config.confusion.entries, ref_config.prior.probabilities, (1,) * 9
    if case == "grouped":
        cfg, strategies = helpers.grouped_instance(np.random.default_rng(903))
        mults = [s.oracle_count for user, s in strategies.items() if user != 1]
        return cfg.confusion.entries, cfg.prior.probabilities, mults
    if case == "binary":
        return [[0.7, 0.3], [0.2, 0.8]], [0.4, 0.6], (1, 2, 2, 3)
    return [[1.0]], [1.0], (1, 2)  # one class


@pytest.mark.parametrize("case", ["amt10", "grouped", "binary", "one-class"])
def test_counts_are_independent(ref_config, case):
    """A count's error rate and win table do not depend on which other
    counts share the call that builds them."""
    population = rival_population(case, ref_config)
    counts = range(1, 9)
    together = enumeration.ExactEnumerator(*population)
    alone = enumeration.ExactEnumerator(*population)
    assert together.error_rates(counts).tolist() == [alone.error_rates([c])[0] for c in counts]
    rng = np.random.default_rng(17)
    focal = rng.uniform(1.0, 5.0, size=len(counts))
    rivals = rng.uniform(1.0, 5.0, size=together.num_rivals)
    together.payoffs(counts, [focal], [rivals])
    for c, f in zip(counts, focal):
        alone.payoffs([c], [[f]], [rivals])
    assert (together.payoffs(counts, [focal], [rivals])
            == alone.payoffs(counts, [focal], [rivals])).all()


def test_group_tables_match_factorial_formulas():
    """Each group holds every composition once, in stars-and-bars order, and
    its multinomial probabilities from the binomial table agree with the
    per-composition factorial formulas for groups up to 30."""
    rng = np.random.default_rng(31)
    confusion = helpers.weakly_accurate_matrix(rng, 5)
    sizes = (1, 2, 5, 10, 20, 30)
    engine = enumeration.ExactEnumerator(
        confusion, np.full(5, 0.2), [m for m, n in enumerate(sizes, 1) for _ in range(n)]
    )
    comps, probs = engine._groups
    assert engine.group_sizes == list(sizes)
    factorial = [math.factorial(x) for x in range(max(sizes) + 1)]
    for n, comp, prob in zip(sizes, comps, probs):
        bars = [(-1, *b, n + 4) for b in itertools.combinations(range(n + 4), 4)]
        assert comp.tolist() == [[b - a - 1 for a, b in zip(row, row[1:])] for row in bars]
        coef = [factorial[n] // math.prod(factorial[x] for x in row) for row in comp.tolist()]
        want = np.asarray(coef, float) * np.prod(confusion[:, None, :] ** comp, axis=2)
        np.testing.assert_allclose(prob, want, rtol=1e-15, atol=0)


def test_group_tables_hold_no_truth_by_composition_by_class_array():
    """The multinomial probabilities are built one class at a time: building
    them for 6 rivals at K = 10 never holds the (truth, composition, class)
    float array, 4.0 MB here, that raising every entry at once would."""
    k = 10
    confusion = np.full((k, k), 0.05) + 0.5 * np.eye(k)
    engine = enumeration.ExactEnumerator(confusion, np.full(k, 1 / k), [1] * 6)
    engine._binomials
    tracemalloc.start()
    try:
        comps, probs = engine._groups
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * len(comps[0]) * k * 8
    np.testing.assert_allclose(probs[0].sum(axis=1), 1.0, rtol=1e-14)


def test_total_reward_scales_the_estimate():
    cfg = fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix.identity(2),
        users=(fs.UserProfile(1, 2), fs.UserProfile(2, 1)),
        total_reward=7.5,
    )
    query = fs.PayoffQuery(cfg, 1, fs.Strategy.single(2), 1.0)
    assert fs.expected_payoff_exact(query).value == pytest.approx(5.0)


@pytest.mark.parametrize("reward", [3.0, 1e300, 2.2250738585072014e-308])
def test_every_payoff_is_the_reward_times_its_share(ref_config, reward):
    """The engine and the sampler give shares, and the payoff layer multiplies
    them by the reward last: at any normal reward each payoff is the reward
    times its value at reward 1, to the last bit, and d_opt does not move."""

    def answers(config):
        query = fs.PayoffQuery(config, 1, fs.optimal_allocation(8, 3), 2.28)
        mc = fs.expected_payoff_mc(query, samples=2000, seed=4)
        d_opt, certificate = fs.find_d_opt(config)
        swept = concentrated_payoffs(config, 1, [1.0, 2.28], range(1, 9))
        return d_opt, [
            fs.expected_payoff_exact(query).value, mc.value, mc.std_error,
            *swept.ravel().tolist(),
            *(v for check in certificate.checks for v in (check.payoff_single,
                                                          check.payoff_mirror)),
        ]

    assert ref_config.total_reward == 1.0
    d_one, shares = answers(ref_config)
    d_opt, payoffs = answers(dataclasses.replace(ref_config, total_reward=reward))
    assert d_one == d_opt == 2.28
    assert payoffs == [share * reward for share in shares]


@pytest.mark.parametrize("seed", range(4))
def test_payoffs_over_all_users_sum_to_total_reward(seed):
    rng = np.random.default_rng(100 + seed)
    cfg = helpers.random_config(rng)
    strategies = {
        u.user_id: fs.optimal_allocation(
            u.total_stake, int(rng.integers(1, u.total_stake + 1))
        )
        for u in cfg.users
    }
    d = float(rng.uniform(1.0, 2.5))
    total = sum(
        fs.expected_payoff_exact(
            fs.PayoffQuery(
                cfg,
                user.user_id,
                strategies[user.user_id],
                d,
                other_strategies={
                    k: v for k, v in strategies.items() if k != user.user_id
                },
            )
        ).value
        for user in cfg.users
    )
    assert total == pytest.approx(cfg.total_reward, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_splitting_never_hurts_at_d1(seed):
    """At d = 1 the factor is split-invariant, so extra votes only help."""
    rng = np.random.default_rng(200 + seed)
    cfg = helpers.random_config(rng, max_stake=5)
    for user in cfg.users:
        values = concentrated_payoffs(
            cfg, user.user_id, 1.0, range(1, user.total_stake + 1)
        )
        assert np.all(np.diff(values) >= -1e-12)


def test_concentrated_payoffs_check_counts_without_building_allocations(
        monkeypatch, ref_config):
    want = concentrated_payoffs(ref_config, 1, 2.0, range(1, 9))

    def refuse(*args):
        raise AssertionError("optimal_allocation called")

    monkeypatch.setattr(fs.payoff, "optimal_allocation", refuse)
    assert concentrated_payoffs(ref_config, 1, 2.0, range(1, 9)).tolist() == want.tolist()
    for c in (0, 9):  # user 1 holds stake 8
        with pytest.raises(ValueError, match=f"oracle count {c} infeasible for stake 8"):
            concentrated_payoffs(ref_config, 1, 2.0, [1, c])


def test_a_concentrated_factor_is_the_same_on_every_path(ref_config_path):
    """With user 1 of amt10 at stake 12, c = 3 and d = 15.99, the factor
    10^d + 1 + 1 lies past 2^53: the payoff of one allocation and the row of
    concentrated payoffs (the `payoff` and `sweep` commands) agree to the bit."""
    doc = json.loads(ref_config_path.read_text())
    doc["users"][0]["stake"] = 12
    cfg = fs.model.config_from_dict(doc)
    query = fs.PayoffQuery(cfg, 1, fs.optimal_allocation(12, 3), 15.99)
    assert fs.expected_payoff_exact(query).value == concentrated_payoffs(cfg, 1, 15.99, [3])[0]


def test_infeasible_strategy_rejected(ref_config):
    with pytest.raises(ValueError):
        fs.PayoffQuery(
            ref_config, 1, fs.Strategy((9,)), 1.0
        ).resolved_strategies()
    with pytest.raises(ValueError):
        fs.expected_payoff_exact(
            fs.PayoffQuery(ref_config, 99, fs.Strategy.single(1), 1.0)
        )


def test_budget_refusal_directs_to_monte_carlo():
    """27 binary rivals mirroring with distinct oracle counts give 2^27 states
    per win table: about 7.8e9 cells, over the default budget."""
    cfg = helpers.symmetric_binary_config(range(1, 29))
    rivals = {u: fs.Strategy.concentrated(u, u - 1) for u in range(2, 29)}
    query = fs.PayoffQuery(cfg, 1, fs.Strategy.single(1), 1.0, rivals)
    with pytest.raises(fs.EnumerationBudgetError):
        fs.expected_payoff_exact(query)


def test_set_counts_past_the_float_range_are_refused():
    """C(1030, 515) is past the largest float, so a group of 1030 rivals is
    refused before its binomials are built, and nothing else is built."""
    confusion, prior = np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0.4, 0.6])
    engine = enumeration.ExactEnumerator(confusion, prior, [1] * 1030)
    for query in (lambda: engine.payoffs([1], [[1.0]], [[1.0] * 1030]),
                  lambda: engine.error_rates([1])):
        with pytest.raises(fs.EnumerationBudgetError, match="a group of 1030 rivals"):
            query()
    assert not {"_binomials", "_groups", "_win_tables"} & set(vars(engine))


def test_every_exact_share_lies_in_the_unit_interval(ref_config):
    """With user 1 at stake 100 the focal user wins nearly every round, and
    its summed win mass rounded a hair past 1 (25 of these 300 shares) before
    the engine clipped its result at 1."""
    users = [dataclasses.replace(u, total_stake=100) if u.user_id == 1 else u
             for u in ref_config.users]
    config = dataclasses.replace(ref_config, users=tuple(users))
    shares = concentrated_payoffs(config, 1, [1.0, 2.0, 16.0], range(1, 101))
    assert shares.shape == (3, 100)
    assert ((shares >= 0.0) & (shares <= 1.0)).all()
    assert shares.max() == 1.0


def test_refused_payoffs_build_nothing():
    """The engine prices a query from its group sizes before it builds any
    table, and the same engine still answers its cheap error rate."""
    confusion, prior = np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0.4, 0.6])
    engine = enumeration.ExactEnumerator(confusion, prior, range(1, 28))
    with pytest.raises(fs.EnumerationBudgetError):
        engine.payoffs([1], [[1.0]], [[1.0] * 27])
    assert not {"_groups", "_win_tables"} & set(vars(engine))
    rate = engine.error_rates([1])[0]
    mc, stderr = fs._montecarlo.error_rate_mc_core(confusion, prior, [1, *range(1, 28)],
                                                    20_000, 0)
    assert abs(rate - mc) <= 3 * stderr


@pytest.mark.parametrize("query,message", [
    (lambda e: e.payoffs([1], [1.0], [[1.0] * 3]), "both be 2-D"),
    (lambda e: e.payoffs([1], [[[1.0]]], [[[1.0] * 3]]), "both be 2-D"),
    (lambda e: e.payoffs([1], [1.0], [1.0] * 3), "both be 2-D"),
    (lambda e: e.payoffs([1, 2], [[1.0]], [[1.0] * 3]), "must align"),
    (lambda e: e.payoffs([1], [[1.0], [2.0]], [[1.0] * 3]), "same rows"),
    (lambda e: e.payoffs([2, 0], [[1.0, 1.0]], [[1.0] * 3]), "count must be >= 1"),
    (lambda e: e.payoffs([1], [[1.0]], [[1.0] * 2]), "expected 3 rival factors"),
    (lambda e: e.error_rates([1, 0]), "count must be >= 1"),
], ids=["mixed-dims", "3-d", "1-d", "misaligned", "rows", "count-0", "rivals",
        "error-rate-count-0"])
def test_ill_formed_queries_are_refused_before_any_table(query, message):
    confusion, prior = np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0.4, 0.6])
    engine = enumeration.ExactEnumerator(confusion, prior, [1, 1, 2])
    with pytest.raises(ValueError, match=message):
        query(engine)
    assert not {"_groups", "_win_tables"} & set(vars(engine))


def test_an_engine_does_not_depend_on_the_budget(fresh_ref_config, ref_config_path, monkeypatch):
    """A query refused under a one-cell budget builds nothing in the config's
    engine; once the budget is back, that same engine answers, and its
    answer equals a fresh config's."""
    engine = fs.payoff.single_oracle_rivals(fresh_ref_config)
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_BUDGET", 1)
        with pytest.raises(fs.EnumerationBudgetError):
            concentrated_payoffs(fresh_ref_config, 1, 2.0, range(1, 9))
        assert not {"_groups", "_win_tables"} & set(vars(engine))
    value = concentrated_payoffs(fresh_ref_config, 1, 2.0, range(1, 9))
    assert fs.payoff.single_oracle_rivals(fresh_ref_config) is engine
    # one table for every count: a row per gap of 0..9 rival votes, a column per k
    assert engine._win_tables.shape == (10, 10)
    fresh = concentrated_payoffs(fs.load_config(ref_config_path), 1, 2.0, range(1, 9))
    assert value.tolist() == fresh.tolist()


def test_a_factor_total_past_the_float_range_is_scaled(ref_config):
    """Past d = 341 two stake-8 factors sum past the float range though each
    fits: such a row is divided by its largest factor, so user 1's lone
    oracle keeps the scale-free payoff it has at d = 340.9 (where nothing
    overflows) instead of losing every round user 4 also matched. Rows and
    counts that do not overflow share the call unchanged."""
    ds = [340.9, 341.0, 341.3]
    rows = concentrated_payoffs(ref_config, 1, ds, range(1, 9))
    assert rows[1:, 0] == pytest.approx([rows[0, 0]] * 2, rel=1e-12, abs=0)
    assert rows[0].tolist() == concentrated_payoffs(ref_config, 1, ds[0], range(1, 9)).tolist()
    query = fs.PayoffQuery(ref_config, 1, fs.Strategy.single(8), 341.0)
    exact = fs.expected_payoff_exact(query).value
    assert exact == rows[1, 0]
    mc = fs.expected_payoff_mc(query, samples=100_000, seed=5)
    assert abs(mc.value - exact) <= 4 * mc.std_error


def test_one_engine_answers_the_papers_pipeline(fresh_ref_config, ref_config_path, monkeypatch):
    """d_opt, the deviation one step below it, the sweep and the error rate on
    one config share one engine: one construction, one set of group tables and
    one win-table build. Each value equals the one a fresh config gives."""

    def search(cfg):
        d, certificate = fs.find_d_opt(cfg)
        return d, certificate.to_dict()

    steps = [
        search,
        *[lambda cfg, c=c: fs.expected_payoff_exact(
            fs.PayoffQuery(cfg, 7, fs.optimal_allocation(6, c), 2.27)) for c in (1, 6)],
        lambda cfg: fs.run_experiment(fs.ExperimentSpec(cfg, 1, range(1, 9), (1.0, 2.28))),
        fs.error_rate_exact,
    ]
    calls = helpers.count_engine_work(monkeypatch)
    shared = [step(fresh_ref_config) for step in steps]
    assert (calls["__init__"], calls["_groups"], calls["_win_tables"]) == (1, 1, 1)
    assert shared == [step(fs.load_config(ref_config_path)) for step in steps]
    assert shared[1].value < shared[2].value  # mirroring still pays one step below d_opt


def test_a_replaced_config_builds_its_own_engine(fresh_ref_config):
    engine = fs.payoff.single_oracle_rivals(fresh_ref_config)
    assert fs.payoff.single_oracle_rivals(fresh_ref_config) is engine
    before = concentrated_payoffs(fresh_ref_config, 1, 2.0, range(1, 9)).tolist()
    confusion = fs.ConfusionMatrix(np.full((5, 5), 0.1) + 0.5 * np.eye(5))
    replaced = dataclasses.replace(fresh_ref_config, confusion=confusion)
    assert fs.payoff.single_oracle_rivals(replaced) is not engine
    built = fs.SystemConfig(5, confusion, fresh_ref_config.users, fresh_ref_config.prior)
    got = concentrated_payoffs(replaced, 1, 2.0, range(1, 9)).tolist()
    assert got == concentrated_payoffs(built, 1, 2.0, range(1, 9)).tolist() != before
    assert fs.error_rate_exact(replaced) == fs.error_rate_exact(built)
    assert concentrated_payoffs(fresh_ref_config, 1, 2.0, range(1, 9)).tolist() == before


def test_twelve_users_are_exact(net12_config):
    """Past ten users the engine's own cost routes a payoff: net12 is exact
    and agrees with a 1e5-sample estimate."""
    query = fs.PayoffQuery(net12_config, 1, fs.optimal_allocation(8, 2), 1.96)
    exact = fs.expected_payoff_exact(query)
    assert exact.method == "exact"
    mc = fs.expected_payoff_mc(query, samples=100_000, seed=0)
    assert abs(mc.value - exact.value) <= 3 * mc.std_error


def test_mc_agrees_with_exact_within_three_sigma():
    hits = 0
    trials = 20
    for seed in range(trials):
        rng = np.random.default_rng(300 + seed)
        cfg = helpers.random_config(rng)
        focal = int(rng.integers(1, cfg.num_users + 1))
        stake = cfg.user(focal).total_stake
        c = int(rng.integers(1, stake + 1))
        d = float(rng.uniform(1.0, 2.5))
        query = fs.PayoffQuery(cfg, focal, fs.optimal_allocation(stake, c), d)
        exact = fs.expected_payoff_exact(query).value
        mc = fs.expected_payoff_mc(query, samples=40000, seed=seed)
        band = 3 * mc.std_error if mc.std_error else 1e-9
        hits += abs(mc.value - exact) <= band
    assert hits >= trials - 1


@pytest.mark.parametrize("c", [1, 8])
def test_reference_network_mc_cross_check(ref_config, c):
    """Million-sample estimates bracket the exact values on the big instance."""
    query = fs.PayoffQuery(ref_config, 1, fs.optimal_allocation(8, c), 1.0)
    exact = fs.expected_payoff_exact(query).value
    mc = fs.expected_payoff_mc(query, samples=10**6, seed=2 + c)
    assert abs(mc.value - exact) <= 3 * mc.std_error


def test_mc_is_deterministic_given_seed():
    cfg = helpers.symmetric_binary_config([2, 1, 1])
    query = fs.PayoffQuery(cfg, 1, fs.optimal_allocation(2, 2), 1.5)
    a = fs.expected_payoff_mc(query, samples=5000, seed=9)
    b = fs.expected_payoff_mc(query, samples=5000, seed=9)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    assert a.samples == 5000 and a.method == "monte_carlo"


def test_best_response_frozen_and_trivial():
    cfg = helpers.symmetric_binary_config([4, 1, 1])
    for d, want in FROZEN_BEST_C_411.items():
        assert fs.best_response_c(cfg, 1, d) == want
    # stake-1 user has exactly one feasible strategy
    assert fs.best_response_c(cfg, 2, 1.0) == 1


@pytest.mark.parametrize("d,want", [(1.0, 3), (3.0, 1)])
def test_best_response_sampled_matches_exact(d, want):
    """Every method alias gives the same best count when the margin is wide:
    at least 0.08 here, against a standard error of about 0.004."""
    cfg = helpers.symmetric_binary_config([3, 2, 1])
    for method in fs.payoff.METHODS:
        assert fs.best_response_c(cfg, 1, d, method=method, samples=20_000) == want
    with pytest.raises(ValueError, match="unknown method"):
        fs.best_response_c(cfg, 1, d, method="exactly")


def test_best_response_matches_bruteforce():
    rng = np.random.default_rng(17)
    cfg = helpers.random_config(rng, max_users=3, max_stake=4)
    for d in (1.0, 2.0):
        want = oracle.best_oracle_count(
            cfg.confusion.entries.tolist(),
            cfg.prior.probabilities.tolist(),
            list(cfg.stakes),
            0,
            d,
        )
        assert fs.best_response_c(cfg, 1, d) == want


@pytest.mark.parametrize("total_stake", [4, 5, 6])
def test_concentrated_allocation_dominates_compositions(total_stake):
    """Concentrated-split dominance on one small instance per stake level."""
    import itertools

    cfg = helpers.symmetric_binary_config([total_stake, 2, 1], accuracy=0.7)
    for c in range(1, total_stake + 1):
        for d in (1.0, 1.5, 2.0):
            best = fs.expected_payoff_exact(
                fs.PayoffQuery(cfg, 1, fs.optimal_allocation(total_stake, c), d)
            ).value
            for composition in itertools.combinations(
                range(1, total_stake), c - 1
            ):
                parts = np.diff((0,) + composition + (total_stake,))
                value = fs.expected_payoff_exact(
                    fs.PayoffQuery(cfg, 1, fs.Strategy(tuple(int(p) for p in parts)), d)
                ).value
                assert value <= best + 1e-12
