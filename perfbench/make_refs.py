#!/usr/bin/env python3
"""Write the reference outputs that perfbench/run.py checks every run against.

    python3 perfbench/make_refs.py [--smoke] [--workload NAME]

Runs each workload's CLI command once and copies the checked CSVs into
``perfbench/refs/{full,smoke}/<workload>/``.  The committed references were
made at the commit that introduced the benchmark; regenerate them only when
a change is meant to alter the outputs, and say so.  The convertible U_ref
beside them comes from ``uref.py``.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import (WORK, WORKLOADS, BenchError, cli_argv, fresh_dir, refs_dir,
                 spawn)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), action="append")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        out_dir = fresh_dir(WORK / "refs" / name)
        wall, _, rc, _ = spawn(["-m", "igafin.cli",
                                *cli_argv(name, args.smoke, out_dir)],
                               WORK / "refs")
        if rc != 0:
            raise BenchError(f"{name}: exit code {rc}")
        dest = refs_dir(name, args.smoke)
        dest.mkdir(parents=True, exist_ok=True)
        for fname in WORKLOADS[name].checked:
            shutil.copyfile(out_dir / fname, dest / fname)
        print(f"{name}: {wall:.1f} s -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
