#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a git revision against the work
tree, with a summary of every end-to-end metric.

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --out BENCH.json

For each workload of ``BENCHMARK.json`` it runs ``--pairs`` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the benchmark's ``run_seconds``, once for each side: the base side
is ``git archive BASE`` (extracted once by ``_extract`` of
``compare_runs.py``), the change side the work tree.  Both are built the
same way: every run copies its side's ``src/``, ``configs/`` and
``perfbench/`` into a fresh temporary directory of the same form and runs
there, since the peak RSS of the same sources moves with the directory
they run from.  Pair i takes seed i + 1, which only goes into the
record; the base side runs first in even pairs, the change side in odd
ones.

The JSON written to ``--out`` (rewritten after every pair, so a cut run
keeps what it measured) holds each run's end-to-end metrics, and per
workload and metric: each side's median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the change
wins and loses (ties count for neither), the bound from ``BENCHMARK.json``
and a verdict.  The verdict is "worse than the bound" when the change's
median is worse than the base's by more than the bound, "better than the
bound" when it is better by more than the bound, "unresolved" when it is
neither but the base's quartiles lie further apart than the bound, and
"within the bound" otherwise.  It also records ``nproc``, the numpy and
scipy versions and each side's ``src_sha256``, as ``perfbench/run.py``
prints them in its record line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_runs import _extract

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
# what a run needs of a side's sources
TREES = ("src", "configs", "perfbench")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run of the sources under ``root``, from a
    copy of its ``TREES`` in a fresh directory: the run's record line and
    the JSON object of its last line."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        tree = Path(tmp)
        for name in TREES:
            shutil.copytree(root / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "0"], cwd=tree, capture_output=True,
            text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py on {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return {"record": record, "result": json.loads(lines[-1])}


def run_metrics(result: dict, names) -> dict:
    """The end-to-end metrics of one run, None where it printed none, with
    the run's correct, attempted and failed counts."""
    metrics = result["metrics"]
    row = {name: metrics[name]["value"] if name in metrics else None
           for name in names}
    row.update({key: result[key] for key in ("correct", "attempted",
                                             "failed")})
    return row


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: medians, quartiles, wins and losses of the change, the
    bound and the verdict, over pairs of {"base": row, "change": row}."""
    summary = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        both = [(p["base"][name], p["change"][name]) for p in pairs
                if p["base"][name] is not None
                and p["change"][name] is not None]
        if not both:
            continue
        entry = {"better": spec["better"], "bound": bound,
                 "pairs": len(both)}
        for side, values in zip(SIDES, zip(*both)):
            q1, median, q3 = (statistics.quantiles(values, n=4,
                                                   method="inclusive")
                              if len(values) > 1 else values * 3)
            entry.update({f"{side}_median": median, f"{side}_q1": q1,
                          f"{side}_q3": q3})
        entry["change_wins"] = sum(sign * (c - b) < 0 for b, c in both)
        entry["change_losses"] = sum(sign * (c - b) > 0 for b, c in both)
        worse_by = sign * (entry["change_median"] - entry["base_median"])
        if worse_by > bound:
            entry["verdict"] = "worse than the bound"
        elif -worse_by > bound:
            entry["verdict"] = "better than the bound"
        elif entry["base_q3"] - entry["base_q1"] > bound:
            entry["verdict"] = "unresolved"
        else:
            entry["verdict"] = "within the bound"
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision of the base side (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    # a termination signal unwinds, so the temporary trees are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    end_to_end = bench["end_to_end"]
    base_commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", args.base], check=True,
        capture_output=True, text=True).stdout.strip()
    doc = {"base": args.base, "base_commit": base_commit,
           "change": "the work tree",
           "command": "python3 perfbench/run.py --workload <workload> "
                      f"--seed <seed> --seconds {seconds:g} --trace 0",
           "pairing": f"{args.pairs} pairs per workload, seeds 1-"
                      f"{args.pairs}; the base side runs first in the pairs "
                      "of even index",
           "quartiles": "statistics.quantiles(n=4, method='inclusive') "
                        "over each side's runs",
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-base-") as tmp:
        roots = {"base": _extract(base_commit, Path(tmp)), "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            doc["workloads"][workload] = {"pairs": pairs}
            for i in range(args.pairs):
                seed = i + 1
                pair = {"seed": seed, "first": SIDES[i % 2]}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    run = run_once(roots[side], workload, seed, seconds)
                    record = run["record"]
                    key = f"{side}_src_sha256"
                    if doc.setdefault(key, record["src_sha256"]) \
                            != record["src_sha256"]:
                        raise RuntimeError(f"the {side} side's sources "
                                           "changed between runs")
                    doc.setdefault("nproc", record["nproc"])
                    doc.setdefault("versions", {
                        k: record[k] for k in ("python", "numpy", "scipy")})
                    pair[side] = run_metrics(
                        run["result"], [m["name"] for m in end_to_end])
                pairs.append(pair)
                doc["workloads"][workload]["summary"] = summarize(
                    pairs, end_to_end)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {pair['base'][name]:.6g} -> "
                    f"{pair['change'][name]:.6g}"
                    for name in ("wall_s", "setup_s", "peak_rss_mb")
                    if pair["base"][name] is not None
                    and pair["change"][name] is not None), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
