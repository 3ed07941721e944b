"""Correctness gates. Each returns a dict whose ``ok`` decides the run's ``correct``.

A gate that fails fails the run; it never turns into a metric value.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9

# criterion 9 of the acceptance suite: the simulated cash law is Gaussian with
# the analytic mean and variance
Z_MEAN_MAX = 3.0
VARIANCE_RATIO_TOL = 0.05
EXCESS_KURTOSIS_MAX = 0.1


def _rel_err(value, ref):
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / abs(ref)


def desk_gate(stream, necprs, pool, rel_tol=REL_TOL):
    """Each converged price matches the stored NECPR of its pool request.

    A request the reference could not solve has no stored value; if it
    converges now it is counted as unchecked, not as wrong.
    """
    checked = unchecked = 0
    worst = 0.0
    bad = []
    for index, necpr in zip(stream, necprs):
        if necpr is None:
            continue
        ref = pool[index]["necpr"]
        if ref is None:
            unchecked += 1
            continue
        checked += 1
        err = _rel_err(necpr, ref)
        worst = max(worst, err)
        if not err <= rel_tol:
            bad.append({"request": index, "necpr": necpr, "reference": ref})
    return {
        "ok": not bad and len(stream) == len(necprs),
        "checked": checked,
        "unchecked": unchecked,
        "worst_rel_err": worst,
        "mismatches": bad[:5],
    }


def surface_gate(values, failed, structure_ok, reference, rel_tol=REL_TOL):
    """Values match the stored surface, with the same failed-cell mask and verdict."""
    ref_values = np.array(
        [[math.nan if x is None else x for x in row] for row in reference["values"]]
    )
    ref_failed = np.asarray(reference["failed"], dtype=bool)
    values = np.asarray(values, dtype=float)
    failed = np.asarray(failed, dtype=bool)
    if values.shape != ref_values.shape or failed.shape != ref_failed.shape:
        return {"ok": False, "reason": f"shape {values.shape} != {ref_values.shape}"}
    same_mask = bool(np.array_equal(failed, ref_failed))
    live = ~ref_failed
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.abs(values - ref_values) / np.abs(ref_values)
    err = np.where(ref_values == 0.0, np.where(values == 0.0, 0.0, math.inf), err)
    worst = float(np.max(err[live])) if live.any() else 0.0
    values_ok = bool(np.all(err[live] <= rel_tol))
    structure_same = bool(structure_ok) == bool(reference["structure_ok"])
    return {
        "ok": same_mask and values_ok and structure_same,
        "same_mask": same_mask,
        "worst_rel_err": worst,
        "structure_ok": bool(structure_ok),
    }


def montecarlo_gate(z_mean, variance_ratio, excess_kurtosis):
    """The criterion-9 verdicts; statistical, so any stream with the same law passes."""
    verdicts = {
        "mean": abs(z_mean) < Z_MEAN_MAX,
        "variance": abs(variance_ratio - 1.0) < VARIANCE_RATIO_TOL,
        "kurtosis": abs(excess_kurtosis) < EXCESS_KURTOSIS_MAX,
    }
    return {
        "ok": all(verdicts.values()),
        "verdicts": verdicts,
        "z_mean": z_mean,
        "variance_ratio": variance_ratio,
        "excess_kurtosis": excess_kurtosis,
    }
