#!/usr/bin/env python3
"""Regenerate the convertible reference value U_ref from the FDM twin.

    python3 perfbench/uref.py                # shipped convertible.ini
    python3 perfbench/uref.py --smoke        # the smoke-test config

Solves the convertible bond with ``fdm_solve_afv`` on LEVELS grids,
doubling cells and steps from BASE, reads U at the probe price, and
extrapolates.  With gaps d_k = U_k - U_(k+1), the observed order is
p = log2(d_(n-2) / d_(n-1)), and U_ref = U_n - d_(n-1) / (2^p - 1) (Aitken).
The uncertainty is the distance to the first-order estimate U_n - d_(n-1).
The inputs, every value, the order and U_ref go to
``perfbench/refs/{full,smoke}/convertible_price/uref.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from run import ROOT, SRC, config_path, refs_dir

NAME = "convertible_price"
BASE = {False: (512, 400), True: (128, 100)}    # (cells, steps) by --smoke
LEVELS = 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    n_cells, n_steps = BASE[args.smoke]

    sys.path.insert(0, str(SRC))
    import numpy as np

    from igafin.cli import parse_config
    from igafin.reference import fdm_solve_afv

    cfg_file = config_path(NAME, args.smoke)
    cfg = parse_config(str(cfg_file))
    x_probe = math.log(cfg.probe_s / cfg.params.s_initial)
    grids, values = [], []
    for k in range(LEVELS):
        n_c, n_t = n_cells << k, n_steps << k
        t0 = time.perf_counter()
        res = fdm_solve_afv(cfg.params, cfg.x_min, cfg.x_max, n_c, n_t,
                            theta=cfg.theta,
                            rannacher_steps=cfg.rannacher_steps)
        values.append(float(np.interp(x_probe, res.x, res.values["U"])))
        grids.append([n_c, n_t])
        print(f"{n_c:6d} x {n_t:5d}: U({cfg.probe_s:g}) = {values[-1]:.10f}"
              f"  ({time.perf_counter() - t0:.1f} s)")

    gaps = [a - b for a, b in zip(values, values[1:])]
    ratio = gaps[-2] / gaps[-1]
    u_ref = values[-1] - gaps[-1] / (ratio - 1.0)
    record = {
        "config": str(cfg_file.relative_to(ROOT)),
        "probe_s": cfg.probe_s,
        "solver": "igafin.reference.fdm_solve_afv",
        "x_min": cfg.x_min, "x_max": cfg.x_max,
        "theta": cfg.theta, "rannacher_steps": cfg.rannacher_steps,
        "grids_cells_steps": grids,
        "values": values,
        "gaps": gaps,
        "gap_ratios": [a / b for a, b in zip(gaps, gaps[1:])],
        "observed_order": math.log2(ratio),
        "u_ref": u_ref,
        "u_ref_uncertainty": abs(u_ref - (values[-1] - gaps[-1])),
        "command": " ".join(["python3", "perfbench/uref.py",
                             *(sys.argv[1:] if argv is None else argv)]),
    }
    dest = refs_dir(NAME, args.smoke)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "uref.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"order {record['observed_order']:.3f}, U_ref = {u_ref:.6f} "
          f"+- {record['u_ref_uncertainty']:.1e} -> {dest / 'uref.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
