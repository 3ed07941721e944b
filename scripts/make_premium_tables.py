#!/usr/bin/env python3
"""Reproduce the premium decomposition tables: PMI / LEC / NECPR split for the
reference stock of configs/reference.cfg, across risk aversions and block sizes.

Usage: python3 scripts/make_premium_tables.py [out_dir]
"""

import csv
import os
import sys
from dataclasses import replace

from blocktrade.config import parse_config
from blocktrade.pricing import price_finite

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "reference.cfg")


def bp(decomp, part):
    return 1e4 * part / decomp.mtm


def emit(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    os.makedirs(out_dir, exist_ok=True)
    cfg = parse_config(CONFIG)
    base, opts = cfg.problem, cfg.solve

    rows = []
    for gamma in (5e-7, 1e-6, 2e-6):
        d = price_finite(replace(base, market=replace(base.market, gamma=gamma)), opts)
        rows.append(
            [
                f"{gamma:g}",
                f"{d.pmi:.0f}", f"{bp(d, d.pmi):.1f}",
                f"{d.lec:.0f}", f"{bp(d, d.lec):.1f}",
                f"{d.necpr_inf:.0f}", f"{bp(d, d.necpr_inf):.1f}",
                f"{d.necpr_T:.0f}", f"{bp(d, d.necpr_T):.1f}",
            ]
        )
        print(
            f"gamma={gamma:g}: PMI {d.pmi:.0f}, LEC {d.lec:.0f}, "
            f"NECPR(inf) {d.necpr_inf:.0f}, NECPR(T) {d.necpr_T:.0f}, "
            f"total premium {d.premium_bp_T:.1f} bp"
        )
    emit(
        os.path.join(out_dir, "premium_by_gamma.csv"),
        ["gamma", "pmi", "pmi_bp", "lec", "lec_bp",
         "necpr_inf", "necpr_inf_bp", "necpr_T", "necpr_T_bp"],
        rows,
    )

    rows = []
    for q0 in (250_000.0, 500_000.0, 1_000_000.0):
        d = price_finite(replace(base, q0=q0), opts)
        rows.append(
            [
                f"{q0:.0f}",
                f"{d.pmi:.0f}", f"{bp(d, d.pmi):.1f}",
                f"{d.lec:.0f}", f"{bp(d, d.lec):.1f}",
                f"{d.necpr_inf:.0f}", f"{bp(d, d.necpr_inf):.1f}",
                f"{d.necpr_T:.0f}", f"{bp(d, d.necpr_T):.1f}",
            ]
        )
        print(
            f"q0={q0:.0f}: PMI {d.pmi:.0f}, LEC {d.lec:.0f}, "
            f"NECPR(inf) {d.necpr_inf:.0f}, NECPR(T) {d.necpr_T:.0f}, "
            f"total premium {d.premium_bp_T:.1f} bp"
        )
    emit(
        os.path.join(out_dir, "premium_by_size.csv"),
        ["q0", "pmi", "pmi_bp", "lec", "lec_bp",
         "necpr_inf", "necpr_inf_bp", "necpr_T", "necpr_T_bp"],
        rows,
    )


if __name__ == "__main__":
    main()
