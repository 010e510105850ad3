"""The summary of tools/bench_pairs.py, on synthetic runs: no benchmark is
spawned."""

import importlib.util
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01},
    {"name": "probe_err", "unit": "price", "better": "lower", "bound": 0.01},
]


@pytest.fixture
def tool(monkeypatch):
    # the tool imports _extract from its neighbour compare_runs.py
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, ok=1.0, err=0.04):
    """The last line of a perfbench/run.py run, as parsed JSON."""
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "ok_frac": {"value": ok, "unit": "frac"}}
    if err is not None:
        metrics["probe_err"] = {"value": err, "unit": "price"}
    return {"correct": ok == 1.0, "attempted": 4,
            "failed": round(4 * (1 - ok)), "metrics": metrics}


def _pairs(tool, base, change):
    names = [m["name"] for m in END_TO_END]
    return [{"base": tool.run_metrics(_result(*b), names),
             "change": tool.run_metrics(_result(*c), names)}
            for b, c in zip(base, change)]


def test_summary_counts_wins_and_quartiles(tool):
    base = [(4.0 + 0.1 * i, 33.0 + 0.01 * i) for i in range(10)]
    # one wall_s tie, two losses; peak RSS 0.2 MB worse in every pair
    change = [(w - 0.05, r + 0.2) for w, r in base[:7]] \
        + [base[7][:1] + (base[7][1] + 0.2,)] \
        + [(w + 0.05, r + 0.2) for w, r in base[8:]]
    summary = tool.summarize(_pairs(tool, base, change), END_TO_END)
    wall = summary["wall_s"]
    assert (wall["change_wins"], wall["change_losses"], wall["pairs"]) \
        == (7, 2, 10)
    walls = [w for w, _ in base]
    assert [wall["base_q1"], wall["base_median"], wall["base_q3"]] \
        == statistics.quantiles(walls, n=4, method="inclusive")
    assert wall["base_median"] == statistics.median(walls)
    # the base's quartiles lie 0.45 s apart, wider than the 0.25 s bound
    assert wall["verdict"] == "unresolved"
    rss = summary["peak_rss_mb"]
    assert (rss["change_wins"], rss["change_losses"]) == (0, 10)
    assert rss["verdict"] == "worse than the bound"
    assert rss["bound"] == 0.1
    # equal in every pair: no wins, no losses
    assert summary["probe_err"]["change_wins"] == 0
    assert summary["probe_err"]["change_losses"] == 0
    assert summary["probe_err"]["verdict"] == "within the bound"


def test_higher_is_better_and_missing_metrics(tool):
    # a change whose every run fails prints no probe_err, and its ok_frac
    # falls: a loss on a higher-is-better metric
    names = [m["name"] for m in END_TO_END]
    pairs = [{"base": tool.run_metrics(_result(1.0, 30.0), names),
              "change": tool.run_metrics(_result(1.0, 30.0, ok=0.0,
                                                 err=None), names)}
             for _ in range(3)]
    assert pairs[0]["change"]["probe_err"] is None
    assert pairs[0]["change"]["failed"] == 4
    summary = tool.summarize(pairs, END_TO_END)
    assert "probe_err" not in summary
    ok = summary["ok_frac"]
    assert (ok["change_wins"], ok["change_losses"]) == (0, 3)
    assert ok["verdict"] == "worse than the bound"


def test_a_gain_beyond_the_bound_is_better_than_the_bound(tool):
    # the base's quartiles lie 0.45 s apart, wider than the 0.25 s bound,
    # but the change's median is 0.6 s lower: a gain, not unresolved
    base = [(4.0 + 0.1 * i, 33.0) for i in range(10)]
    change = [(w - 0.6, r) for w, r in base]
    summary = tool.summarize(_pairs(tool, base, change), END_TO_END)
    wall = summary["wall_s"]
    assert wall["base_q3"] - wall["base_q1"] > wall["bound"]
    assert (wall["change_wins"], wall["change_losses"]) == (10, 0)
    assert wall["verdict"] == "better than the bound"
    # higher is better: a rise beyond the bound is a gain too
    pairs = _pairs(tool, [(1.0, 30.0, 0.5)] * 3, [(1.0, 30.0, 1.0)] * 3)
    summary = tool.summarize(pairs, END_TO_END)
    assert summary["ok_frac"]["verdict"] == "better than the bound"
