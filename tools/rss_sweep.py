#!/usr/bin/env python3
"""Peak RSS of one benchmark workload run from directories whose names
differ in length.

    python3 tools/rss_sweep.py --workload leland_ladder --dirs 6 --runs 3
    python3 tools/rss_sweep.py --workload leland_ladder --base HEAD~1
    python3 tools/rss_sweep.py --code pass --dirs 2 --runs 1

The same sources read a different peak RSS from different directories
(ROADMAP item 5), so an RSS change means something only against that
spread.  The tool copies the sources' ``src/``, ``configs/`` and
``perfbench/`` into ``--dirs`` sibling temporary directories named ``d``,
``dd``, ``ddd`` and so on, and runs the workload's CLI command ``--runs``
times in each through ``spawn`` of that copy's ``perfbench/run.py``: a
fresh interpreter working in the copy with its ``src`` on PYTHONPATH,
whose ``ru_maxrss`` is the run's peak.  The runs go round the directories
in turn, so host drift falls on each alike.  ``--code CODE`` runs
``python -c CODE`` in place of a workload.  Outputs are not checked, and
a run that exits nonzero stops the sweep.

With ``--base REV`` the sources of ``git archive REV`` are swept too, in
directories of the same names under a parent whose name is as long, and
each directory's two sides run one after the other, the base first in
even rounds.

Prints one line per side and directory: the name's length, and the median
peak RSS in MB with its range over the runs.  Then, per side, the spread
of the medians across the directories, and with ``--base`` the change's
median minus the base's in each directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import TREES
from compare_runs import _extract

ROOT = Path(__file__).resolve().parents[1]


def _runner(tree: Path, tag: str):
    """The ``perfbench/run.py`` module of the sources under ``tree``."""
    spec = importlib.util.spec_from_file_location(
        f"rss_sweep_{tag}", tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _argv(runner, workload: str | None, code: str | None) -> list[str]:
    """The interpreter arguments of one run, as ``timed_run`` spawns the
    workload's CLI command, or ``-c code``."""
    if workload is None:
        return ["-c", code]
    out_dir = runner.fresh_dir(runner.WORK / workload / "out")
    return ["-m", "igafin.cli", *runner.cli_argv(workload, False, out_dir)]


def sweep(roots: dict[str, Path], n_dirs: int, runs: int,
          workload: str | None = None,
          code: str | None = None) -> dict[str, list[list[float]]]:
    """Peak RSS in MB of every run: by side, the keys of ``roots``, one list
    of ``runs`` values per directory, the shortest name first."""
    peaks = {side: [[] for _ in range(n_dirs)] for side in roots}
    with contextlib.ExitStack() as stack:
        runners = {}
        for side, root in roots.items():
            parent = Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix="rss_sweep-")))
            runners[side] = []
            for i in range(n_dirs):
                tree = parent / ("d" * (i + 1))
                for name in TREES:
                    shutil.copytree(root / name, tree / name,
                                    ignore=shutil.ignore_patterns(
                                        "__pycache__", ".perfbench"))
                runners[side].append(_runner(tree, f"{side}_{i}"))
        sides = list(roots)
        for r in range(runs):
            for i in range(n_dirs):
                for side in (sides if r % 2 == 0 else sides[::-1]):
                    runner = runners[side][i]
                    _, peak, rc, _ = runner.spawn(
                        _argv(runner, workload, code),
                        runner.WORK / "rss_sweep")
                    if rc != 0:
                        raise RuntimeError(
                            f"the {side} side's run in directory {i + 1} "
                            f"exited {rc}; see {runner.WORK / 'rss_sweep'}")
                    peaks[side][i].append(peak)
    return peaks


def report(peaks: dict[str, list[list[float]]]) -> list[str]:
    """The lines the tool prints for the peaks of ``sweep``."""
    medians = {side: [statistics.median(runs) for runs in dirs]
               for side, dirs in peaks.items()}
    lines = ["side    name_len  median_mb  min_mb    max_mb"]
    for side, dirs in peaks.items():
        lines += [f"{side:7s} {i + 1:8d}  {medians[side][i]:9.3f}  "
                  f"{min(runs):8.3f}  {max(runs):8.3f}"
                  for i, runs in enumerate(dirs)]
    for side, values in medians.items():
        lines.append(f"{side}: medians span {max(values) - min(values):.3f} "
                     f"MB across {len(values)} directories "
                     f"({min(values):.3f}-{max(values):.3f})")
    if "base" in medians:
        diffs = [c - b for b, c in zip(medians["base"], medians["change"])]
        lines.append("change - base by directory: " + " ".join(
            f"{d:+.3f}" for d in diffs) + f" MB (median "
            f"{statistics.median(diffs):+.3f})")
    return lines


def _positive(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {raw}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload",
                      choices=list(_runner(ROOT, "root").WORKLOADS))
    what.add_argument("--code", help="python code to run in place of a "
                                     "workload")
    parser.add_argument("--dirs", type=_positive, default=6)
    parser.add_argument("--runs", type=_positive, default=3)
    parser.add_argument("--base", help="git revision to sweep beside the "
                                       "work tree")
    args = parser.parse_args(argv)
    # a termination signal unwinds, so the temporary trees are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="rss_sweep-base-") as tmp:
        roots = {"change": ROOT}
        if args.base:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", args.base], check=True,
                capture_output=True, text=True).stdout.strip()
            roots = {"base": _extract(commit, Path(tmp)), **roots}
        peaks = sweep(roots, args.dirs, args.runs, args.workload, args.code)
    print("\n".join(report(peaks)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
