import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import feedsim as fs
from feedsim.model import ConfigFormatError


def test_reference_config_valid_and_weakly_accurate(ref_config):
    report = fs.validate_config(ref_config)
    assert report.is_valid
    assert report.weakly_accurate
    assert ref_config.stakes == (8, 5, 3, 8, 4, 7, 6, 5, 7, 2)
    # each diagonal entry is its row's maximum, e.g. 0.8072 in row 4
    assert ref_config.confusion.entries[3, 3] == pytest.approx(0.8072)


def test_config_arrays_are_read_only_copies(fresh_ref_config):
    """An exact engine kept by a config reads the config's arrays, so they
    cannot be written in place; the caller's own arrays stay writable."""
    entries, prior = np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0.4, 0.6])
    cfg = fs.SystemConfig(2, fs.ConfusionMatrix(entries), (fs.UserProfile(1, 1),),
                          prior=fs.ClassPrior(prior))
    for array in (cfg.confusion.entries, cfg.prior.probabilities,
                  fresh_ref_config.confusion.entries, fresh_ref_config.prior.probabilities):
        assert array.dtype == np.float64
        with pytest.raises(ValueError):
            array[0] = 0.5
    entries[0, 0], prior[0] = 0.5, 0.5
    assert cfg.confusion.entries.tolist() == [[0.8, 0.2], [0.3, 0.7]]
    assert cfg.prior.probabilities.tolist() == [0.4, 0.6]


def test_oracle_counts_stop_at_the_listing_bound():
    bound = fs.model.MAX_ORACLE_COUNTS
    assert fs.UserProfile(3, 4).oracle_counts() == range(1, 5)
    assert len(fs.UserProfile(3, bound).oracle_counts()) == bound
    with pytest.raises(ValueError, match=f"user 3: stake {bound + 1} has more oracle counts"):
        fs.UserProfile(3, bound + 1).oracle_counts()


def test_identity_matrix_valid_and_weakly_accurate():
    cfg = fs.SystemConfig(
        num_classes=3,
        confusion=fs.ConfusionMatrix.identity(3),
        users=(fs.UserProfile(1, 1),),
    )
    report = fs.validate_config(cfg)
    assert report.is_valid
    assert report.weakly_accurate


def test_bad_row_sum_reported():
    matrix = [[1.0, 0.0], [0.4, 0.5]]
    with pytest.raises(fs.InvalidConfigError) as caught:
        fs.SystemConfig(
            num_classes=2,
            confusion=fs.ConfusionMatrix(matrix),
            users=(fs.UserProfile(1, 1),),
        )
    report = caught.value.report
    assert not report.is_valid
    assert any("row 2 sums to 0.9" in v for v in report.violations)


def test_prior_defaults_to_uniform():
    cfg = fs.SystemConfig(
        num_classes=4,
        confusion=fs.ConfusionMatrix.identity(4),
        users=(fs.UserProfile(1, 1),),
    )
    assert np.allclose(cfg.prior.probabilities, 0.25)


def test_bad_prior_and_stakes_reported():
    with pytest.raises(fs.InvalidConfigError) as caught:
        fs.SystemConfig(
            num_classes=2,
            confusion=fs.ConfusionMatrix.identity(2),
            users=(fs.UserProfile(1, 0), fs.UserProfile(1, 2), fs.UserProfile(2, 2.5)),
            prior=fs.ClassPrior([-0.3, 1.4]),
        )
    text = "\n".join(caught.value.report.violations)
    assert "prior has negative or non-finite entries" in text
    assert "prior sums to" in text
    assert "user 2: stake 2.5 is not an integer" in text
    assert "below the minimum stake" in text
    assert "not unique" in text


def test_non_contiguous_user_ids_reported():
    with pytest.raises(fs.InvalidConfigError) as caught:
        fs.SystemConfig(
            num_classes=2,
            confusion=fs.ConfusionMatrix.identity(2),
            users=(fs.UserProfile(1, 1), fs.UserProfile(3, 1)),
        )
    assert any("contiguous" in v for v in caught.value.report.violations)


def test_a_config_is_checked_once_when_it_is_built(monkeypatch, ref_config_path):
    """Each run of the check builds one ValidationReport: loading amt10 runs
    it, and answering every question on the config runs it never again."""
    reports = []
    report_type = fs.model.ValidationReport

    def counted(*args):
        reports.append(report_type(*args))
        return reports[-1]

    monkeypatch.setattr(fs.model, "ValidationReport", counted)
    config = fs.load_config(ref_config_path)
    assert len(reports) == 1
    assert fs.find_d_opt(config)[0] == 2.28
    assert fs.verify_nash(config, 2.28).satisfied
    fs.run_experiment(fs.ExperimentSpec(config, 1, range(1, 9), (1.0, 2.28)))
    query = fs.PayoffQuery(config, 1, fs.optimal_allocation(8, 2), 2.28)
    fs.expected_payoff_exact(query)
    fs.expected_payoff_mc(query, samples=1000, seed=1)
    fs.error_rate_exact(config)
    fs.error_rate_mc(config, samples=1000, seed=1)
    fs.require_valid(config)
    assert fs.validate_config(config) is config.report is reports[0]
    assert len(reports) == 1


def test_renormalize_is_explicit_opt_in():
    rows = [[0.5, 0.4], [0.25, 0.75]]
    m = fs.ConfusionMatrix(rows)
    assert m.violations()  # row 1 sums to 0.9
    fixed = m.renormalized()
    assert not fixed.violations()
    assert fixed.entries[0, 0] == pytest.approx(0.5 / 0.9)
    with pytest.raises(ValueError, match="cannot renormalize a row with non-positive sum"):
        fs.ConfusionMatrix([[0.0, 0.0], [0.25, 0.75]]).renormalized()


def test_sample_report_identity_is_deterministic():
    rng = np.random.default_rng(0)
    m = fs.ConfusionMatrix.identity(5)
    assert all(fs.sample_report(m, 3, rng) == 3 for _ in range(20))


def test_sample_report_single_draw_and_range_check():
    rng = np.random.default_rng(0)
    m = fs.ConfusionMatrix([[0.5, 0.5], [0.5, 0.5]])
    draws = {fs.sample_report(m, 1, rng) for _ in range(50)}
    assert draws == {1, 2}
    with pytest.raises(ValueError):
        fs.sample_report(m, 3, rng)


def test_sample_report_symmetric_frequencies():
    rng = np.random.default_rng(42)
    m = fs.ConfusionMatrix([[0.5, 0.5], [0.5, 0.5]])
    n = 10**6
    draws = fs.sample_report(m, 1, rng, size=n)
    freq = np.mean(draws == 1)
    sigma = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) <= 3 * sigma


def test_sample_report_matches_reference_row(ref_config):
    rng = np.random.default_rng(7)
    n = 10**6
    draws = fs.sample_report(ref_config.confusion, 1, rng, size=n)
    p = 0.6439
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(np.mean(draws == 1) - p) <= 3 * sigma


def test_sample_report_chi_square(ref_config):
    rng = np.random.default_rng(11)
    n = 10**5
    for truth in range(1, 6):
        draws = fs.sample_report(ref_config.confusion, truth, rng, size=n)
        observed = np.bincount(draws - 1, minlength=5)
        expected = ref_config.confusion.row(truth) * n
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.01


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)
)
def test_strategy_canonicalization_idempotent_and_stake_conserving(alloc):
    strategy = fs.Strategy(tuple(alloc))
    canon = strategy.canonical()
    assert canon.total_staked == strategy.total_staked
    assert canon.oracle_count == strategy.oracle_count
    assert canon.canonical() == canon
    assert canon.allocation[1:] == (1,) * (canon.oracle_count - 1)


def test_strategy_rejects_bad_allocations():
    with pytest.raises(ValueError):
        fs.Strategy(())
    with pytest.raises(ValueError):
        fs.Strategy((0, 1))
    assert fs.Strategy((2, 1)).violations_for_stake(2)


def test_config_json_round_trip(tmp_path, ref_config):
    doc = json.dumps(
        {
            "num_classes": ref_config.num_classes,
            "confusion": ref_config.confusion.entries.tolist(),
            "users": [
                {"id": u.user_id, "stake": u.total_stake} for u in ref_config.users
            ],
        }
    )
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    loaded = fs.load_config(path)
    assert np.array_equal(loaded.confusion.entries, ref_config.confusion.entries)
    assert loaded.stakes == ref_config.stakes
    assert loaded.total_reward == 1.0


def test_config_decimal_parse_is_exact(tmp_path):
    # JSON decimal literals parse to the nearest double, same as float()
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"num_classes": 2, "confusion": [[0.6439, 0.3561], [0.3561, 0.6439]],'
        ' "users": [{"id": 1, "stake": 1}]}'
    )
    loaded = fs.load_config(path)
    assert loaded.confusion.entries[0, 0] == float("0.6439")


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"confusion": [[1]], "users": []}',
        '{"num_classes": 2, "confusion": [[1, 0]], "users": []}',
        '{"num_classes": 2, "confusion": [[1,0],[0,1]], "users": [{"id": 1}]}',
        '[1, 2]',
    ],
)
def test_malformed_documents_raise_format_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigFormatError):
        fs.load_config(path)
