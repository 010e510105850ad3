#!/usr/bin/env python3
"""Check that the igafin CLI gives byte-identical results at a git
revision and in the work tree.

    python3 tools/compare_runs.py                  # against HEAD
    python3 tools/compare_runs.py --base HEAD~1

Extracts ``git archive REF`` into a temporary directory and runs a fixed
matrix of CLI commands (``RUNS``) once on its ``src/`` and once on the work
tree's, each run in its own temporary directory with a copy of its config.
A run is the same when the return code, stdout and stderr (with the run
directory replaced by ``<run>``) and every output file, byte for byte, are
the same on both sides.  Each side reads its own ``configs/``, so a change
to a shipped config shows as a difference.

Prints one line per run and a summary, and exits 1 if any run differs.
Below a run whose CSV tables differ, one line per table gives each
column's largest absolute difference and the largest share it takes of
the benchmark's allowance (RTOL = 1e-10 times the column's largest
magnitude at REF, plus one unit in the last printed digit; above 1
fails), then the verdict of the benchmark's own check, ``compare_csv`` of
``perfbench/run.py``.
Nothing is written inside the repository: the children run with
``PYTHONDONTWRITEBYTECODE=1`` and every file goes under the system's
temporary directory, which is removed at the end.  The two sides of a run
go in parallel, two processes at a time.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.util
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("convertible.ini", "greeks_linear.ini", "leland_ladder.ini",
           "linear_uniform.ini", "refined.ini")


def _matrix():
    """(name, verb, config, overrides) of every run; overrides map
    ``section.key`` to a value, or with None remove the key."""
    runs = [(f"price-{cfg[:-4]}", "price", cfg, {}) for cfg in CONFIGS]
    # every shipped ladder, the linear one cut to its first two rungs; and
    # each oracle on each model: the Leland ladder against its closed form
    # without its reference, the bond against a P1 reference
    runs += [
        ("converge-convertible", "converge", "convertible.ini", {}),
        ("converge-convertible-reference", "converge", "convertible.ini",
         {"ladder.reference": "256:200"}),
        ("converge-leland_ladder", "converge", "leland_ladder.ini", {}),
        ("converge-leland_ladder-closed-form", "converge",
         "leland_ladder.ini", {"ladder.reference": None}),
        ("converge-linear_uniform", "converge", "linear_uniform.ini",
         {"ladder.rungs": "32:6000, 64:6000"}),
        ("converge-refined", "converge", "refined.ini", {}),
        # refined knots off the cubic, and with the strike off centre: the
        # call's default domain moved up by 2.5
        ("price-refined-p4", "price", "refined.ini",
         {"discretization.degree": "4"}),
        ("converge-refined-offcentre", "converge", "refined.ini",
         {"discretization.x_min": repr(math.log(100.0) - 3.4425 + 2.5),
          "discretization.x_max": repr(math.log(100.0) + 3.1613 + 2.5),
          "ladder.rungs": "32:256, 64:1024"}),
        # the grid of the committed out/afv_smoke tables
        ("price-convertible-128x100", "price", "convertible.ini",
         {"discretization.n_elements": "128", "discretization.n_tau": "100"}),
        # settings that cannot run, each rc 2 on one stderr line: a probe
        # outside the domain, a refined kink outside the interval and an
        # empty interval
        ("price-convertible-probe-outside", "price", "convertible.ini",
         {"experiment.probe_s": "1000"}),
        ("price-refined-kink-outside", "price", "refined.ini",
         {"discretization.x_min": "5", "discretization.x_max": "6"}),
        ("price-convertible-empty-interval", "price", "convertible.ini",
         {"discretization.x_min": "2", "discretization.x_max": "2"}),
        # and what a verb rejects before it solves: price's Greeks at
        # degree 1, and a P1 reference of one element
        ("price-convertible-degree-1", "price", "convertible.ini",
         {"discretization.degree": "1"}),
        ("converge-leland_ladder-reference-1", "converge",
         "leland_ladder.ini", {"ladder.reference": "1:10"}),
        # a march that stays finite but whose gamma overflows, rc 3 on one
        # stderr line, and a run that warns, rc 0 with one stderr line
        ("price-convertible-greeks-overflow", "price", "convertible.ini",
         {"discretization.n_elements": "256", "discretization.n_tau": "20",
          "model.conversion_ratio": "1e300"}),
        ("price-leland_ladder-one-step", "price", "leland_ladder.ini",
         {"discretization.n_tau": "1"}),
        # a mass matrix whose Cholesky meets a zero pivot, rc 3 on one
        # stderr line
        ("price-leland_ladder-degree-40", "price", "leland_ladder.ini",
         {"discretization.degree": "40", "discretization.n_elements": "16",
          "discretization.n_tau": "8"}),
        # [model] settings that parse but cannot run, rc 2 on one stderr
        # line: a sigma whose square overflows, and a conversion value
        # k S_0 that overflows, so the payoff kink is the log of 0
        ("price-refined-sigma-overflow", "price", "refined.ini",
         {"model.sigma": "1e200"}),
        ("price-convertible-conversion-overflow", "price", "convertible.ini",
         {"model.conversion_ratio": "1e300", "model.s_initial": "1e10"}),
        # a put on the final level, so that theta differences levels 48
        # and 49 of 50
        ("price-convertible-put-at-t0", "price", "convertible.ini",
         {"model.put_window": "0.0:0.0:105",
          "discretization.n_elements": "64", "discretization.n_tau": "50"}),
        # a load that overflows, so that Newton diverges at level 1, rc 3
        # on one stderr line; and one theta, so that the bond's factor
        # cache holds the Jacobians of a single theta
        ("price-convertible-newton-nan", "price", "convertible.ini",
         {"model.hazard_rate": "1e308",
          "discretization.n_elements": "64", "discretization.n_tau": "50"}),
        ("price-convertible-theta-1", "price", "convertible.ini",
         {"discretization.theta": "1",
          "discretization.n_elements": "64", "discretization.n_tau": "50"}),
        ("validate", "validate", None, {}),
    ]
    return runs


RUNS = _matrix()


def _extract(ref: str, dest: Path) -> Path:
    """Extract ``git archive ref`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest


def _start(tree: Path, run_dir: Path, run) -> subprocess.Popen:
    """Start one run of the tree's CLI in ``run_dir``, which it owns."""
    _, verb, cfg, overrides = run
    run_dir.mkdir(parents=True)
    argv = [sys.executable, "-m", "igafin.cli", verb]
    if cfg is not None:
        path = run_dir / cfg
        if overrides:
            cp = configparser.ConfigParser(interpolation=None)
            cp.read(tree / "configs" / cfg)
            for dotted, value in overrides.items():
                section, key = dotted.split(".")
                if value is None:
                    cp.remove_option(section, key)
                else:
                    cp[section][key] = value
            with open(path, "w") as fh:
                cp.write(fh)
        else:
            path.write_bytes((tree / "configs" / cfg).read_bytes())
        argv += ["--config", str(path), "--out", str(run_dir / "out")]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(argv, cwd=run_dir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _result(proc: subprocess.Popen, run_dir: Path) -> dict[str, bytes]:
    """What a finished run gave: rc, stdout, stderr and each output file
    by its path below the run directory."""
    out, err = proc.communicate()
    here = str(run_dir).encode()
    got = {"rc": str(proc.returncode).encode(),
           "stdout": out.replace(here, b"<run>"),
           "stderr": err.replace(here, b"<run>")}
    out_dir = run_dir / "out"
    if out_dir.exists():
        for path in sorted(out_dir.rglob("*")):
            got[path.relative_to(run_dir).as_posix()] = (
                path.read_bytes() if path.is_file() else b"<dir>")
    return got


def _bench():
    """``perfbench/run.py``, loaded by path without writing bytecode, for
    the benchmark's own output check."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench      # its dataclasses look it up
    sys.dont_write_bytecode = True
    spec.loader.exec_module(bench)
    return bench


def _column_diffs(bench, base: Path, work: Path) -> str:
    """Each column's largest absolute difference between two CSV tables,
    with the largest share of the benchmark's allowance for a cell (RTOL
    times the column's largest magnitude in ``base``, plus one unit in the
    last printed digit) that a difference takes; a share above 1 fails,
    and inf marks cells that are not both numbers.  Then the verdict of
    the benchmark's ``compare_csv``."""
    verdict = (bench.compare_csv(work, base)
               or "within the benchmark's tolerance")
    (head, rows_b), (head_w, rows_w) = map(bench.read_csv, (base, work))
    if head != head_w or len(rows_b) != len(rows_w) or any(
            len(a) != len(b) for a, b in zip(rows_b, rows_w)):
        return verdict
    parts = []
    for name, col_b, col_w in zip(head, zip(*rows_b), zip(*rows_w)):
        top = max((abs(v) for v in map(bench._number, col_b)
                   if v is not None), default=0.0)
        worst = share = 0.0
        for a, b in zip(col_w, col_b):
            if a == b:
                continue
            x, y = bench._number(a), bench._number(b)
            if x is None or y is None:
                worst = share = math.inf
                continue
            allowed = bench.RTOL * top + bench._quantum(y)
            worst = max(worst, abs(x - y))
            share = max(share, abs(x - y) / allowed if allowed else math.inf)
        parts.append(f"{name} {worst:.3g} ({share:.3g})")
    return f"{', '.join(parts)}; {verdict}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare with (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        tmp = Path(tmp)
        trees = {"base": _extract(args.base, tmp / "tree"), "work": ROOT}
        bench = _bench()
        differ = 0
        for run in RUNS:
            name = run[0]
            dirs = {side: tmp / side / name for side in trees}
            procs = {side: _start(tree, dirs[side], run)
                     for side, tree in trees.items()}
            base, work = (_result(procs[side], dirs[side])
                          for side in ("base", "work"))
            diffs = sorted(key for key in base.keys() | work.keys()
                           if base.get(key) != work.get(key))
            differ += bool(diffs)
            status = "DIFF" if diffs else "same"
            detail = f": {', '.join(diffs)}" if diffs else ""
            print(f"{status}  {name}  (rc {work['rc'].decode()}, "
                  f"{len(work) - 3} files){detail}", flush=True)
            for key in diffs:
                if key.endswith(".csv") and key in base and key in work:
                    print(f"      {key}: " + _column_diffs(
                        bench, dirs["base"] / key, dirs["work"] / key))
    print(f"{len(RUNS) - differ} of {len(RUNS)} runs identical to "
          f"{args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
