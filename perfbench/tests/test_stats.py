import pytest

from stats import CommandOutcome, median_unit_s, percentile, spread, tail_percentile, tally


@pytest.mark.parametrize("n, expected", [
    (0, None), (10, None), (99, None), (100, 90.0), (101, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (20000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_beyond_its_value():
    for n in (100, 150, 1000, 12345):
        p = tail_percentile(n)
        values = list(range(n))
        assert sum(1 for v in values if v > percentile(values, p)) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile(values, 20) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_iqr_over_median():
    assert spread([10.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_clean_command_fails_nothing():
    assert CommandOutcome("pretrain", 40, 40, 0).failed == 0


def test_nonzero_exit_fails_what_was_left():
    assert CommandOutcome("pretrain", 40, 10, 3).failed == 30
    assert CommandOutcome("eval-qa", 48, 0, 2).failed == 48


def test_nonzero_exit_after_last_unit_still_counts():
    assert CommandOutcome("pretrain", 40, 40, 2).failed == 1


def test_failed_check_fails_every_operation():
    out = CommandOutcome("eval-lp", 150, 150, 0, ["outputs differ"])
    assert out.failed == 150


def test_tally_sums_attempted_and_failed():
    outcomes = [CommandOutcome("finetune", 6, 6, 0),
                CommandOutcome("eval-qa", 48, 20, 2),
                CommandOutcome("eval-lp", 150, 150, 0, ["non-finite"])]
    assert tally(outcomes) == (204, 28 + 150)


def test_median_unit_s_sums_each_units_median_sample():
    reps = [[("pretrain", "step", 10.0), ("pretrain", "step", 30.0), ("eval-qa", "question", 5.0)],
            [("pretrain", "step", 12.0), ("pretrain", "step", 20.0), ("eval-qa", "question", 7.0)],
            [("pretrain", "step", 14.0), ("pretrain", "step", 90.0), ("eval-qa", "question", 6.0)],
            [("pretrain", "step", 50.0)]]            # a failed repetition: other units
    got = median_unit_s(reps)
    assert got == {("pretrain", "step"): pytest.approx(0.012 + 0.030),
                   ("eval-qa", "question"): pytest.approx(0.006)}
    assert median_unit_s([]) == {}
