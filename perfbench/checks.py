"""Per-op output checks and the accuracy of printed values against the reference.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

from oracle import Reference, rel_err
from workloads import Op

REL_TOL = 1e-12
# CSV cells carry 10 significant digits, so identities between them hold to
# about 1e-10 relative.
CSV_REL_TOL = 1e-9
# MDMA's simulated outage must lie within SIGMA_K standard errors of the
# closed form.  The larger of the reported and the binomial standard error
# at the closed-form value is used, so a run with no failures still passes.
SIGMA_K = 5.0
# FDMA (two bands) and NOMA (joint decoding) can deliver both sources' data
# in one slot, so their slots per delivered reception can be as low as 1/2.
RECEPTIONS_PER_SLOT = {"fdma": 2, "noma": 2}

STEP_KEYS = ("shared:bcast", "shared:relay", "personal1:bcast",
             "personal1:relay", "personal2:bcast", "personal2:relay")
RELAY_SOURCE = {"shared:relay": 1, "personal1:relay": 1, "personal2:relay": 2}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _prob(v) -> bool:
    return isinstance(v, (int, float)) and 0.0 <= v <= 1.0


def check_analyze(text: str, op: Op, ref: Reference) -> tuple[list[str], float]:
    """Problems with one `analyze` JSON document, and its largest relative error."""
    try:
        doc = json.loads(text)
        steps = doc["step_outages"]
        values = [steps[k] for k in STEP_KEYS]
        op_all, tc, phi = doc["overall_op"], doc["slot_cost"], doc["efficiency"]
        beta_s, beta_p = doc["beta_s"], doc["beta_p"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed analyze output: {exc!r}"], 0.0
    point = op.points[0]
    problems = [f"{k} = {v!r} is not a probability"
                for k, v in zip(STEP_KEYS, values) if not _prob(v)]
    if not _prob(op_all) or op_all >= 1.0:
        return problems + [f"overall_op = {op_all!r} is not a probability below 1"], 0.0
    if (beta_s, beta_p) != (point.beta_s, point.beta_p):
        problems.append(f"beta_s, beta_p = {beta_s}, {beta_p}; expected "
                        f"{point.beta_s}, {point.beta_p} for eta {point.eta}")
    if not _close(tc, 1.0 / (1.0 - op_all), REL_TOL):
        problems.append(f"slot_cost {tc!r} != 1/(1-overall_op)")
    if not _close(phi, 2.0 / (tc * (beta_s + 2 * beta_p)), REL_TOL):
        problems.append(f"efficiency {phi!r} != 2/(T_c (beta_s + 2 beta_p))")
    for kind in ("bcast", "relay"):
        if steps[f"shared:{kind}"] != steps[f"personal1:{kind}"]:
            problems.append(f"shared:{kind} != personal1:{kind}")
    if problems:
        return problems, 0.0
    exact = ref.steps(point.relays, point.power_dbm)
    errs = [rel_err(steps[k], exact[src][1]) for k, src in RELAY_SOURCE.items()]
    errs.append(rel_err(op_all, ref.overall_op(point)))
    return [], max(errs)


def _num(row: dict, col: str) -> float | None:
    cell = row[col]
    return None if cell == "" else float(cell)


def check_sweep(csv_path, op: Op, ref: Reference) -> tuple[list[str], float]:
    """Problems with one sweep CSV, and the largest relative error of `analytic_op`."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_value = {p.power_dbm: p for p in op.points}
    problems, errs = [], []
    if len(rows) != len(by_value) * 4:
        problems.append(f"{len(rows)} rows; expected {len(by_value) * 4}")
    for row in rows:
        where = f"{row['scheme']}@{row['value']}"
        if row["error"]:
            problems.append(f"{where}: error cell {row['error']!r}")
            continue
        sim_op, se = _num(row, "sim_op"), _num(row, "sim_op_stderr")
        sim_tc, sim_phi = _num(row, "sim_tc"), _num(row, "sim_phi")
        trials = int(row["trials"])
        if None in (sim_op, se, sim_tc, sim_phi) or not all(
                map(math.isfinite, (sim_op, se, sim_tc, sim_phi))):
            problems.append(f"{where}: missing or non-finite estimate")
            continue
        min_tc = 1.0 / RECEPTIONS_PER_SLOT.get(row["scheme"], 1)
        if not (0.0 <= sim_op <= 1.0 and se >= 0.0 and sim_tc >= min_tc and sim_phi > 0.0):
            problems.append(f"{where}: estimate out of range")
        if row["scheme"] != "mdma":
            continue
        a_op, a_tc = _num(row, "analytic_op"), _num(row, "analytic_tc")
        if a_op is None or a_tc is None or not 0.0 <= a_op < 1.0:
            problems.append(f"{where}: analytic_op {a_op!r} missing or out of range")
            continue
        if not _close(a_tc, 1.0 / (1.0 - a_op), CSV_REL_TOL):
            problems.append(f"{where}: analytic_tc != 1/(1-analytic_op)")
        sigma = max(se, math.sqrt(a_op * (1.0 - a_op) / trials))
        if abs(sim_op - a_op) > SIGMA_K * sigma:
            problems.append(f"{where}: sim_op {sim_op} is more than {SIGMA_K:g} "
                            f"standard errors from analytic_op {a_op}")
        errs.append(rel_err(a_op, ref.overall_op(by_value[float(row["value"])])))
    return problems, max(errs, default=0.0)
