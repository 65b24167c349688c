"""bench_pairs.summarise on synthetic run records: no perfbench runs."""

import pytest

from bench_pairs import failed_report, op_report, report, summarise

END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def record(ops_per_s, peak_rss_mb, op_s, failed=0):
    return {"metrics": {"ops_per_s": {"value": ops_per_s}, "peak_rss_mb": {"value": peak_rss_mb}},
            "op_s": {"round": op_s}, "failed": failed, "attempted": 10,
            "worst_error_to_tolerance": 0.5 + failed}


def test_summarise_counts_wins_by_direction_and_ties_for_neither():
    runs = {
        "base": [record(1.0, 10.0, [0.4, 0.5]), record(2.0, 12.0, [0.3]),
                 record(3.0, 14.0, [0.2]), record(4.0, 16.0, [0.1])],
        # pair by pair: a win, a tie, a loss and a win on each metric
        "head": [record(2.0, 9.0, [0.2]), record(2.0, 12.0, [0.2]),
                 record(2.0, 15.0, [0.1, 0.3]), record(5.0, 15.0, [0.1], failed=1)],
    }
    out = summarise(runs, END_TO_END)
    ops, rss = out["metrics"]["ops_per_s"], out["metrics"]["peak_rss_mb"]
    assert ops["head_wins"] == rss["head_wins"] == 2
    assert ops["pairs"] == rss["pairs"] == 4
    # medians: ops 2.5 -> 2.0, rss 13.0 -> 13.5; base quartiles (inclusive) 1.75, 3.25
    # and 11.5, 14.5
    assert ops["head_over_base"] == pytest.approx(2.0 / 2.5)
    assert rss["head_over_base"] == pytest.approx(13.5 / 13.0)
    assert ops["base_band"] == pytest.approx([1.75 / 2.5, 3.25 / 2.5])
    assert rss["base_band"] == pytest.approx([11.5 / 13.0, 14.5 / 13.0])
    assert rss["pair_ratios"] == pytest.approx([0.9, 1.0, 15.0 / 14.0, 15.0 / 16.0])
    assert (rss["better"], rss["bound"]) == ("lower", 0.1)
    # each run's median op time, then the median over runs
    assert out["op_s_median"]["round"] == {"base": pytest.approx(0.25),
                                           "head": pytest.approx(0.2),
                                           "head_over_base": pytest.approx(0.8)}
    assert out["failed"] == {"base": [0, 0, 0, 0], "head": [0, 0, 0, 1]}
    assert out["worst_error_to_tolerance"] == {"base": 0.5, "head": 1.5}


def test_report_gives_one_line_per_workload_and_metric():
    runs = {"base": [record(1.0, 10.0, [0.4]), record(2.0, 12.0, [0.3]), record(3.0, 14.0, [0.2])],
            "head": [record(2.0, 9.0, [0.2]), record(3.0, 11.0, [0.2]), record(3.0, 12.0, [0.1])]}
    summary = summarise(runs, END_TO_END)
    lines = report({"fresh": summary, "shared": summary})
    assert lines[0] == ("fresh ops_per_s: base 2 -> head 3 1/s "
                        "(1.500x, base band 0.750-1.250, head won 2 of 3)")
    assert lines[1] == ("fresh peak_rss_mb: base 12 -> head 11 MB "
                        "(0.917x, base band 0.917-1.083, head won 3 of 3)")
    assert [line.split(":")[0] for line in lines[2:]] == ["shared ops_per_s",
                                                          "shared peak_rss_mb"]


def test_op_report_gives_each_op_kinds_ratio_per_workload():
    base = [record(1.0, 10.0, [0.4, 0.2]), record(1.0, 10.0, [0.2])]
    head = [record(1.0, 10.0, [0.1]), record(1.0, 10.0, [0.2, 0.4])]
    summary = summarise({"base": base, "head": head}, END_TO_END)
    summary["op_s_median"]["other"] = {"base": 2.0, "head": 1.0, "head_over_base": 0.5}
    # medians over runs of each run's median: 0.25 -> 0.2
    assert op_report({"fresh": summary, "shared": summary}) == [
        "fresh op time: round 0.800x, other 0.500x",
        "shared op time: round 0.800x, other 0.500x",
    ]


def test_failed_report_gives_each_sides_failed_ops_per_run():
    stub = {"failed": {"base": [1, 1, 1], "head": [1, 2, 1]}}
    assert failed_report({"cli-cold": stub, "shared": {"failed": {"base": [0], "head": [0]}}}) == [
        "cli-cold failed ops per run: base [1, 1, 1] -> head [1, 2, 1]",
        "shared failed ops per run: base [0] -> head [0]",
    ]
