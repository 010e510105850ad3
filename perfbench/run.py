#!/usr/bin/env python3
"""Benchmark of the igafin CLI on the shipped configs.

    python3 perfbench/run.py --workload convertible_price --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each workload is one CLI command on a shipped config, which fixes every
input; ``--seed`` only goes into the record.  ``--trace 0`` times the command
in fresh interpreters, as users run it, for at least ``--seconds`` and
prints the end-to-end metrics, with times scaled to the nominal speed of
the shared host (see REF_CODE).  ``--trace 1`` runs the command twice in this
process, inside the spans of ``spans.py`` and then untraced, and prints the
per-layer metrics.  Every run's outputs are compared with references made at
the seed commit (``refs/``, regenerated by ``make_refs.py``).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``--smoke`` swaps in the tiny configs under ``smoke/`` and their references.

Run from a checkout holding ``src/`` and ``configs/``; nothing is installed,
``src`` goes on PYTHONPATH.  IGAFIN_THREADS must be unset so that the
program's own thread pool is measured as shipped.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 9          # fresh-interpreter set-ups per run
REF_NOMINAL_S = 1.0     # REF_CODE on the 2-core reference machine
CHILD_TIMEOUT_S = 170
RTOL = 1e-10            # golden-output tolerance, relative


@dataclass(frozen=True)
class Workload:
    verb: str
    config: str                 # relative to the checkout root
    checked: tuple[str, ...]    # outputs compared with the references


# Each workload stresses the layer that one ROADMAP item predicts will move:
# spline evaluation for output (convertible_price, the only penalty-Newton
# march), the linear theta march on pool threads with almost no spline
# evaluation (linear_ladder), and the degree-1 banded solves and assembly of
# the P1 reference (leland_ladder).  BENCHMARK.json lists only the first and
# the last: three timed workloads do not fit the run budget on a slow host,
# and those two between them still measure every layer.
WORKLOADS = {
    "convertible_price": Workload(
        "price", "configs/convertible.ini", ("slice_t0.csv", "greeks.csv")),
    "linear_ladder": Workload(
        "converge", "configs/linear_uniform.ini", ("convergence.csv",)),
    "leland_ladder": Workload(
        "converge", "configs/leland_ladder.ini", ("convergence.csv",)),
}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import igafin
from igafin.cli import parse_config
t1 = time.perf_counter()
parse_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
"""


# The 2-core reference machine shares its host, whose speed drifts by up to
# half over minutes; CPU time follows wall time, so this is not stolen time.
# The program's run and set-up times drift together with this import of the
# libraries igafin loads (a tight loop that stays in cache does not), so
# times are reported at the nominal host speed: scaled by REF_NOMINAL_S over
# the time of this job, run between the timed runs (see timed_run).  It imports
# nothing from igafin, so no change to the program moves it.
REF_CODE = """\
import time
t0 = time.perf_counter()
import argparse, concurrent.futures, configparser, dataclasses, re
import numpy, scipy.linalg, scipy.stats
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def config_path(name: str, smoke: bool) -> Path:
    if smoke:
        return BENCH / "smoke" / f"{name}.ini"
    return ROOT / WORKLOADS[name].config


def refs_dir(name: str, smoke: bool) -> Path:
    return BENCH / "refs" / ("smoke" if smoke else "full") / name


def check_environment(names, smoke: bool) -> None:
    if "IGAFIN_THREADS" in os.environ:
        raise BenchError("IGAFIN_THREADS is set; unset it so the program's "
                         "own thread pool is measured as shipped")
    if not (SRC / "igafin" / "cli.py").is_file():
        raise BenchError(f"no igafin sources under {SRC}")
    for name in names:
        for path in (config_path(name, smoke), refs_dir(name, smoke)):
            if not path.exists():
                raise BenchError(f"missing {path}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], log_dir: Path):
    """Run a fresh interpreter; returns (wall s, peak RSS MB, rc, stdout)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()


def reference_once() -> float:
    """Seconds for REF_CODE in a fresh interpreter."""
    _, _, rc, stdout = spawn(["-c", REF_CODE], WORK / "reference")
    if rc != 0:
        raise BenchError(f"reference child failed (rc={rc})")
    return float(stdout.strip().splitlines()[-1])


def setup_once(cfg: Path) -> dict:
    """``import igafin`` plus ``parse_config`` in a fresh interpreter."""
    _, _, rc, stdout = spawn(["-c", SETUP_CODE, str(cfg)], WORK / "setup")
    if rc != 0:
        raise BenchError(f"set-up child failed (rc={rc}); see "
                         f"{WORK / 'setup' / 'stderr.txt'}")
    return json.loads(stdout.strip().splitlines()[-1])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines() or [""]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def _quantum(b: float) -> float:
    """One unit in the last of the 10 significant digits the CSVs print."""
    return 10.0 ** (math.floor(math.log10(abs(b))) - 9) if b else 0.0


def compare_csv(got: Path, ref: Path) -> str | None:
    """None when ``got`` matches ``ref``, else the first mismatch.

    A value may differ from the reference by RTOL times the largest
    magnitude in its column, plus one unit in the last printed digit: the
    column scale keeps round-off in values near zero from cancellation (a
    small gamma beside large ones) from counting as a failure, and the
    quantum keeps a flipped last digit from doing so.  Fields that are not
    numbers must match exactly.
    """
    if not got.is_file():
        return f"{got.name}: not written"
    head_g, rows_g = read_csv(got)
    head_r, rows_r = read_csv(ref)
    if head_g != head_r or len(rows_g) != len(rows_r):
        return f"{got.name}: header or row count differs from the reference"
    scale = [max((abs(v) for v in map(_number, col) if v is not None),
                 default=0.0) for col in zip(*rows_r)]
    for i, (rg, rr) in enumerate(zip(rows_g, rows_r), start=2):
        if len(rg) != len(rr):
            return f"{got.name}:{i}: field count differs"
        for col, a, b, top in zip(head_r, rg, rr, scale):
            x, y = _number(a), _number(b)
            if a == b or (x is not None and y is not None and
                          abs(x - y) <= RTOL * top + _quantum(y)):
                continue
            return f"{got.name}:{i}: {col} = {a}, reference {b}"
    return None


def probe_error(name: str, smoke: bool, out_dir: Path) -> float:
    """Error at the probe price; the oracle depends on the workload."""
    if WORKLOADS[name].verb == "converge":
        # closed form (linear) or P1 misfit (Leland) at the finest rung
        head, rows = read_csv(out_dir / "convergence.csv")
        return float(rows[-1][head.index("error")])
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(config_path(name, smoke))
    probe = cp.getfloat("experiment", "probe_s")
    u_ref = json.loads((refs_dir(name, smoke) / "uref.json").read_text())
    head, rows = read_csv(out_dir / "slice_t0.csv")
    for row in rows:
        if math.isclose(float(row[0]), probe, rel_tol=1e-9):
            return abs(float(row[head.index("U")]) - u_ref["u_ref"])
    raise BenchError(f"probe S = {probe} is not a row of slice_t0.csv")


def check_outputs(name: str, smoke: bool, out_dir: Path) -> list[str]:
    problems = []
    for fname in WORKLOADS[name].checked:
        msg = compare_csv(out_dir / fname, refs_dir(name, smoke) / fname)
        if msg:
            problems.append(msg)
    return problems


def cli_argv(name: str, smoke: bool, out_dir: Path) -> list[str]:
    return [WORKLOADS[name].verb, "--config", str(config_path(name, smoke)),
            "--out", str(out_dir)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_run(name: str, smoke: bool, seconds: float) -> dict:
    """End-to-end metrics: the CLI in fresh interpreters, untraced.

    Rounds repeat until the CLI runs have taken ``seconds`` and SETUP_REPS
    set-ups are done.  A round is one reference run (REF_CODE), then one CLI
    run while they are still due, then one set-up while they are still due.
    Times are divided by reference times, which cancels the drift of the
    host's speed, and multiplied by REF_NOMINAL_S: a set-up, an import like
    the reference job, by its own round's reference (the median ratio is
    reported); the CLI, one or a few long runs, by the mean reference time
    over the whole run, which was steadier than the median over ten-run
    sets.  The unscaled figures are printed too.  Untimed set-up and
    reference runs first write the bytecode caches, which users do not pay
    for on every run.
    """
    cfg = config_path(name, smoke)
    setup_once(cfg)
    reference_once()
    walls, setups, refs, rss, errs, problems = [], [], [], [], [], []
    setup_ratios = []
    failed = 0
    while sum(walls) < seconds or len(setups) < SETUP_REPS:
        ref = reference_once()
        refs.append(ref)
        if sum(walls) < seconds:
            out_dir = fresh_dir(WORK / name / "out")
            wall, peak, rc, _ = spawn(["-m", "igafin.cli",
                                       *cli_argv(name, smoke, out_dir)],
                                      WORK / name)
            walls.append(wall)
            rss.append(peak)
            bad = [f"exit code {rc}"] if rc != 0 else \
                check_outputs(name, smoke, out_dir)
            if bad:
                failed += 1
                problems += bad
            else:
                errs.append(probe_error(name, smoke, out_dir))
        if len(setups) < SETUP_REPS:
            s = setup_once(cfg)
            setups.append(s["import_s"] + s["parse_s"])
            setup_ratios.append(setups[-1] / ref)
    attempted = len(walls)
    raw = {"wall_s": statistics.median(walls),
           "setup_s": statistics.median(setups),
           "reference_s": statistics.mean(refs)}
    metrics = {
        "wall_s": (raw["wall_s"] / raw["reference_s"] * REF_NOMINAL_S, "s"),
        "setup_s": (statistics.median(setup_ratios) * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    if errs:
        # left out when every run failed, so a broken program cannot read
        # as an accuracy gain on a lower-is-better metric
        metrics["probe_err"] = (errs[-1], "price")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "raw": raw}


def inprocess(cli, argv, tracer=None) -> tuple[float, int | None, str]:
    """One CLI call in this process; returns (wall s, rc or None, error)."""
    fn = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc, err = fn(argv), ""
    except Exception as exc:  # a crash is a failed run, not a lost result
        rc, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, err


def traced_run(name: str, smoke: bool) -> dict:
    """Per-layer metrics from one traced and one untraced in-process run.

    The traced run fails when its outputs are wrong or its spans do not
    form one tree (``spans.Tracer.check``).
    """
    cfg = config_path(name, smoke)
    setup_once(cfg)
    setups = [setup_once(cfg) for _ in range(SETUP_REPS)]
    sys.path.insert(0, str(SRC))
    from igafin import cli

    import spans

    # Traced first, so that first-run costs such as heap growth fall on it
    # as on a fresh CLI process; the overhead figure errs high, not low.
    problems = []
    runs = {}
    for label in ("traced", "untraced"):
        out_dir = fresh_dir(WORK / name / label)
        if label == "traced":
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                wall, rc, err = inprocess(cli, cli_argv(name, smoke, out_dir),
                                          tracer)
        else:
            wall, rc, err = inprocess(cli, cli_argv(name, smoke, out_dir))
        bad = check_outputs(name, smoke, out_dir) if rc == 0 else \
            [err or f"exit code {rc}"]
        if label == "traced":
            bad += tracer.check()
        problems += [f"{label}: {b}" for b in bad]
        runs[label] = (wall, out_dir, bad)

    led, counts = tracer.ledger(), tracer.counts()
    wall, out_dir, _ = runs["traced"]

    def ratio(a, b):
        return a / b if b else 0.0

    calls, total = led.calls, led.total_s
    points = counts["basis.eval_points"]
    levels = counts["stepper.levels"]
    iters = counts["stepper.newton_iters"]
    m = {
        # wall_s on convertible_price; unchanged on linear_ladder
        "basis.eval_calls": (calls["basis.eval"], "count"),
        "basis.eval_points": (points, "count"),
        "basis.eval_s": (total["basis.eval"], "s"),
        "basis.eval_us_per_point": (1e6 * ratio(total["basis.eval"], points),
                                    "us"),
        # wall_s on linear_ladder; march_s is the self time of run_leland /
        # run_afv, march_total_s adds the linsolve calls made inside them
        "stepper.levels": (levels, "count"),
        "stepper.march_s": (led.self_s["stepper.march"], "s"),
        "stepper.march_total_s": (total["stepper.march"], "s"),
        "stepper.step_us": (1e6 * ratio(total["stepper.march"], levels),
                            "us"),
        # wall_s on convertible_price; probe_err must not move
        "stepper.newton_calls": (calls["stepper.newton"], "count"),
        "stepper.newton_iters": (iters, "count"),
        "stepper.newton_iters_per_level": (
            ratio(iters, calls["stepper.newton"]), "ratio"),
        "stepper.newton_s": (total["stepper.newton"], "s"),
        # wall_s on convertible_price (re-factoring inside Newton)
        "linsolve.factor_calls": (calls["linsolve.factor"], "count"),
        "linsolve.factor_s": (total["linsolve.factor"], "s"),
        "linsolve.factors_per_newton_iter": (
            ratio(calls["linsolve.factor"], iters), "ratio"),
        # wall_s on linear_ladder (k = 3) and leland_ladder (k = 1)
        "linsolve.solve_calls": (calls["linsolve.solve"], "count"),
        "linsolve.solve_s": (total["linsolve.solve"], "s"),
        "linsolve.solve_us": (1e6 * ratio(total["linsolve.solve"],
                                          calls["linsolve.solve"]), "us"),
        "linsolve.matvec_calls": (calls["linsolve.matvec"], "count"),
        "linsolve.matvec_s": (total["linsolve.matvec"], "s"),
        # wall_s on leland_ladder
        "reference.p1_s": (total["reference.p1"], "s"),
        # wall_s on leland_ladder, convertible_price less so
        "assembly.assemble_calls": (calls["assembly.assemble"], "count"),
        "assembly.assemble_s": (total["assembly.assemble"], "s"),
        "assembly.collocation_s": (total["assembly.collocation"], "s"),
        "assembly.build_s": (total["assembly.build"], "s"),
        # wall_s on convertible_price
        "greeks.table_s": (total["greeks.table"], "s"),
        "greeks.write_s": (total["greeks.write"], "s"),
        "cli.csv_s": (total["cli.csv"], "s"),
        "cli.csv_bytes": (sum(p.stat().st_size
                              for p in out_dir.glob("*.csv")), "bytes"),
        "models.constraint_s": (total["models.constraint"], "s"),
        # setup_s on every workload
        "cli.parse_s": (statistics.median(s["parse_s"] for s in setups), "s"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setups),
                           "s"),
        # the traced run itself
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": (runs["untraced"][0], "s"),
        "trace.overhead_s": (wall - runs["untraced"][0], "s"),
    }
    failed = sum(1 for _, _, bad in runs.values() if bad)
    return {"attempted": len(runs), "failed": failed, "problems": problems,
            "metrics": m}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "igafin").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(seed: int, trace: int, smoke: bool) -> dict:
    return {
        "seed": seed, "trace": trace, "smoke": smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "igafin_threads_set": "IGAFIN_THREADS" in os.environ,
    }


def report(name: str, res: dict) -> None:
    print(f"== {name}: {res['attempted']} runs, {res['failed']} failed, "
          f"fail_frac {res['failed'] / res['attempted']:g}")
    for key, (value, unit) in res["metrics"].items():
        print(f"  {key:34s} {value:.6g} {unit}")
    if "raw" in res:
        print("  unscaled: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in res["raw"].items()))
    for msg in res["problems"]:
        print(f"  FAILED: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configs under perfbench/smoke")
    args = ap.parse_args(argv)
    # a termination signal unwinds like an exception, so spawn() kills
    # the running child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_environment(names, args.smoke)
        record = run_record(args.seed, args.trace, args.smoke)
        results = {}
        for name in names:
            if args.trace:
                results[name] = traced_run(name, args.smoke)
            else:
                results[name] = timed_run(name, args.smoke, args.seconds)
            report(name, results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("record " + json.dumps(record, sort_keys=True))
    prefix = len(names) > 1
    metrics = {(f"{n}.{k}" if prefix else k): {"value": v, "unit": u}
               for n, res in results.items()
               for k, (v, u) in res["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
