"""tools/bench_pairs.py summarises alternating parent/change runs without running any."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "images_per_s", "unit": "images/s", "better": "higher"},
    {"name": "map_box", "unit": "mAP", "better": "higher"},
    {"name": "not_reported", "unit": "s", "better": "lower"},
]


@pytest.fixture
def bench_pairs(monkeypatch):
    # As when run as a script, the tool imports record_bench from its own directory.
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(p50, rate, map_box=0.99, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "images_per_s": {"value": rate, "unit": "images/s"},
        "map_box": {"value": map_box, "unit": "mAP"},
    }}


def canned_pairs():
    parent_p50 = [7.0, 7.4, 6.8, 8.0, 7.2, 7.6, 6.9, 7.1, 7.3, 7.5]
    change_p50 = [6.0, 6.4, 6.9, 6.1, 6.2, 6.5, 5.9, 6.1, 6.3, 6.2]  # loses pair 3 (6.9 > 6.8)
    # Throughput moves little: the change wins 6 of 10 and never by more than the parent's spread.
    parent_rate = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 100.0, 97.0, 105.0]
    change_rate = [101.0, 103.0, 99.0, 103.0, 100.0, 100.0, 102.0, 101.0, 98.0, 104.0]
    return [(run(a, b), run(c, d)) for a, c, b, d in zip(parent_p50, change_p50, parent_rate, change_rate)]


def test_summary_of_canned_runs(bench_pairs):
    rows = {row["metric"]: row for row in bench_pairs.summarize(canned_pairs(), METRICS)}
    assert list(rows) == ["latency_p50_ms", "images_per_s", "map_box"]

    p50 = rows["latency_p50_ms"]
    assert p50["parent_median"] == pytest.approx(7.25)
    assert p50["parent_quartiles"] == pytest.approx((7.025, 7.475))
    assert p50["change_median"] == pytest.approx(6.2)
    assert p50["change_quartiles"] == pytest.approx((6.1, 6.375))
    assert p50["change_pct"] == pytest.approx(100 * (6.2 - 7.25) / 7.25)
    assert (p50["wins"], p50["pairs"], p50["gain_holds"]) == (9, 10, True)

    rate = rows["images_per_s"]
    assert (rate["wins"], rate["gain_holds"]) == (6, False)
    assert rate["change_median"] - rate["parent_median"] < rate["parent_quartiles"][1] - rate["parent_quartiles"][0]

    # Equal values are ties: no side wins them.
    assert (rows["map_box"]["wins"], rows["map_box"]["gain_holds"]) == (0, False)


def test_gain_needs_nine_tenths_of_the_pairs(bench_pairs):
    pairs = canned_pairs()
    parent, change = pairs[0]
    pairs[0] = (parent, run(9.0, 100.0))
    row = bench_pairs.summarize(pairs, METRICS[:1])[0]
    assert (row["wins"], row["gain_holds"]) == (8, False)


def test_gain_needs_the_median_difference_beyond_the_parent_spread(bench_pairs):
    pairs = [(run(p, 100.0), run(p - 0.1, 100.0)) for p in (6.0, 7.0, 8.0, 6.5, 7.5)]
    row = bench_pairs.summarize(pairs, METRICS[:1])[0]
    assert (row["wins"], row["gain_holds"]) == (5, False)


def test_table_and_failures(bench_pairs):
    pairs = canned_pairs()
    pairs[4] = (pairs[4][0], run(6.0, 100.0, correct=False, failed=2))
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs, METRICS)).splitlines()
    assert table[0].split() == ["metric", "parent", "change", "diff", "wins", "gain", "regression"]
    assert table[1].split()[0] == "latency_p50_ms"
    assert table[1].endswith("9/10  yes")
    assert bench_pairs._failures(pairs) == ["pair 5 change: correct False, 2 failed"]


def test_regression_against_the_bound(bench_pairs):
    # Parent p50 7.25 [7.025, 7.475]: an interquartile range of 0.45, 6.2 % of the median.
    pairs = [(parent, run(parent["metrics"]["latency_p50_ms"]["value"] * 1.3, 100.0)) for parent, _ in canned_pairs()]
    bounded = [dict(METRICS[0], bound=bound) for bound in (0.25, 0.5, 0.05)]

    def regression(pairs, metric):
        return bench_pairs.summarize(pairs, [metric])[0]["regression"]

    # The change's median is 30 % above the parent's.
    assert regression(pairs, bounded[0]) == "worse"
    assert regression(pairs, bounded[1]) == ""
    assert regression(canned_pairs(), bounded[2]) == "unresolved"
    # A bound too tight for the parent's spread still reports a clear regression as worse.
    assert regression(pairs, bounded[2]) == "worse"
    assert regression(pairs, METRICS[0]) == ""
    # For a higher-is-better metric, worse means lower.
    rate = dict(METRICS[1], bound=0.1)
    slower = [(parent, run(7.0, 80.0)) for parent, _ in canned_pairs()]
    assert regression(slower, rate) == "worse"
    assert regression(canned_pairs(), rate) == ""
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs, bounded[:1])).splitlines()
    assert table[1].endswith("0/10  no    worse")


def test_exit_status_follows_worse_rows(bench_pairs, monkeypatch, tmp_path, capsys):
    # BENCHMARK.json bounds latency_p50_ms at 0.25: a change 30 % slower reads worse, 10 % slower does not.
    parent_dir = tmp_path / "parent"

    def exit_status(slowdown):
        def fake_run(checkout, args):
            calls.append(checkout)
            return run(7.0, 100.0) if checkout == parent_dir.resolve() else run(7.0 * slowdown, 100.0)

        calls = []
        monkeypatch.setattr(bench_pairs, "run_perfbench", fake_run)
        status = bench_pairs.main([str(parent_dir), "--workload", "serve_single", "--pairs", "4"])
        assert len(calls) == 8
        return status

    def worse_rows():
        return [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith(" worse")]

    assert exit_status(1.3) == 1
    assert worse_rows() == ["latency_p50_ms"]
    assert exit_status(1.1) == 0
    assert worse_rows() == []


def test_run_order_alternates_starting_with_the_parent(bench_pairs, monkeypatch, tmp_path, capsys):
    parent_dir = tmp_path / "parent"
    order = []

    def fake_run(checkout, args):
        order.append("parent" if checkout == parent_dir.resolve() else "change")
        return run(7.0, 100.0)

    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_run)
    assert bench_pairs.main([str(parent_dir), "--workload", "serve_single", "--pairs", "3"]) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
