"""Reproducible parameter sweeps and theory-vs-simulation validation."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analytic import (
    GatedExponential,
    closed_form_applies,
    decode_fail_probs,
    relay_sum_cdf,
    step_outages,
)
from .markov import ChainSolution, labelled, solve_chain
from .simulator import SCHEMES, SimOptions, shared_draws, simulate
from .topology import (
    ConfigError,
    NetworkTopology,
    SystemConfig,
    config_to_dict,
    fits_float,
    is_whole,
    link_rates,
    topology_to_dict,
)

SWEEPABLE = ("power_dbm", "eta", "granularity", "relay_count")
PUBLISH_MIN_TRIALS = 10_000
DEFAULT_POWER_GRID = tuple(float(p) for p in range(0, 31, 2))


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, the schemes to run and the sampling budget."""

    parameter: str
    values: tuple
    schemes: tuple[str, ...]
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ConfigError(f"parameter must be one of {SWEEPABLE}, got {self.parameter!r}")
        for name in ("values", "schemes"):
            # A string would be split into characters: "04" sweeps 0 and 4 dBm.
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"sweep field {name!r} must be a list, got {getattr(self, name)!r}")
        if not self.values:
            raise ConfigError("sweep grid must be nonempty")
        vals = tuple(self.values)
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigError(f"sweep values must be numbers, got {v!r}")
            if not fits_float(v):
                raise ConfigError(f"sweep value of {self.parameter} is too large for a float")
            if not math.isfinite(v):
                raise ConfigError(f"sweep values must be finite, got {v!r}")
            if self.parameter in ("granularity", "relay_count") and not is_whole(v):
                raise ConfigError(f"{self.parameter} values must be whole numbers, got {v!r}")
        if list(vals) != sorted(vals):
            raise ConfigError("sweep grid must be sorted")
        object.__setattr__(self, "values", vals)
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
            if s in self.schemes[:i]:  # its rows would be written twice
                raise ConfigError(f"scheme {s!r} is listed more than once")
        for name in ("trials", "seed"):
            v = getattr(self, name)
            if not is_whole(v):
                raise ConfigError(f"sweep {name} must be a whole number, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError(f"sweep seed must be non-negative, got {self.seed}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        try:
            return cls(
                parameter=doc["parameter"],
                values=doc["values"],
                schemes=doc["schemes"],
                trials=doc["trials"],
                seed=doc.get("seed", 0),
            )
        except KeyError as exc:
            raise ConfigError(f"sweep spec missing field {exc}") from exc
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed sweep spec: {exc}") from exc


@dataclass
class ResultRow:
    """One (scheme, grid point) outcome; analytic fields stay empty for
    simulation-only baseline schemes, and every result field for a failed
    point."""

    scheme: str
    parameter: str
    value: float
    eta: float
    _: dataclasses.KW_ONLY
    analytic_op: float | None = None
    sim_op: float | None = None
    sim_op_stderr: float | None = None
    analytic_tc: float | None = None
    sim_tc: float | None = None
    analytic_phi: float | None = None
    sim_phi: float | None = None
    sim_phi_stderr: float | None = None
    trials: int
    error: str = ""


CSV_COLUMNS = [f.name for f in dataclasses.fields(ResultRow)]


def _apply_parameter(
    topology: NetworkTopology, config: SystemConfig, parameter: str, value
) -> tuple[NetworkTopology, SystemConfig]:
    if parameter == "power_dbm":
        return topology, replace(config, power_dbm=float(value))
    if parameter == "eta":
        return topology, replace(config, eta=float(value))
    if parameter == "granularity":
        return topology, replace(config, granularity=int(value))
    if parameter == "relay_count":
        k = int(value)
        if not 1 <= k <= topology.num_relays:
            raise ConfigError(
                f"relay_count {k} outside 1..{topology.num_relays} available relays"
            )
        return replace(topology, relay_pos=topology.relay_pos[:k]), config
    raise ConfigError(f"unknown parameter {parameter!r}")


def analytic_solution(topology: NetworkTopology, config: SystemConfig) -> ChainSolution:
    """Closed-form step outages, chain solution and scalar metrics."""
    outs = step_outages(topology, config)
    return solve_chain(
        outs, config.beta_s, config.beta_p, config.bandwidth_units, config.power_units
    )


def run_sweep(
    spec: SweepSpec,
    topology: NetworkTopology,
    config: SystemConfig,
    options: SimOptions = SimOptions(),
) -> list[ResultRow]:
    """Analytic values plus simulation estimates for every grid point and scheme.

    The schemes of one grid point share its broadcast draws (`shared_draws`):
    each chunk of a source's episodes is drawn once, by the first scheme to
    reach it, and read by the others.  Every row is the one a lone `simulate`
    of its scheme gives, but the schemes' estimates at one point are
    correlated, so their difference is not one of independent samples.
    """
    rows: list[ResultRow] = []
    for gi, value in enumerate(spec.values):
        try:
            topo_v, cfg_v = _apply_parameter(topology, config, spec.parameter, value)
        except ConfigError as exc:
            rows += [ResultRow(scheme, spec.parameter, float(value), config.eta,
                               trials=spec.trials, error=str(exc)) for scheme in spec.schemes]
            continue
        seed = spec.seed + gi
        # A traced run draws its own: shared draws keep no SNRs.
        draws = None if options.trace_limit else shared_draws(topo_v, cfg_v, seed, options)
        for scheme in spec.schemes:
            row = ResultRow(scheme, spec.parameter, float(value), cfg_v.eta, trials=spec.trials)
            try:
                if scheme == "mdma":
                    sol = analytic_solution(topo_v, cfg_v)
                    row.analytic_op = sol.overall_op
                    row.analytic_tc = sol.slot_cost
                    row.analytic_phi = sol.efficiency
                est = simulate(scheme, topo_v, cfg_v, spec.trials, seed=seed, options=options,
                               draws=draws)
                row.sim_op = est.overall_op
                row.sim_op_stderr = est.overall_op_stderr
                row.sim_tc = est.tc_empirical
                row.sim_phi = est.phi_empirical
                row.sim_phi_stderr = est.phi_stderr
            except ConfigError as exc:
                row.error = str(exc)
            rows.append(row)
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.10g}"
    return str(v)


def write_rows_csv(path, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])


def run_manifest(
    spec: SweepSpec, topology: NetworkTopology, config: SystemConfig, options: SimOptions
) -> dict:
    """Reproducibility manifest: config hash, seed and versions."""
    doc = {
        "topology": topology_to_dict(topology),
        "system": config_to_dict(config),
        "sweep": {
            "parameter": spec.parameter,
            "values": list(spec.values),
            "schemes": list(spec.schemes),
            "trials": spec.trials,
            "seed": spec.seed,
        },
        "options": dataclasses.asdict(options),
    }
    unrecordable = [k for k, v in doc["system"].items() if not math.isfinite(v)]
    if unrecordable:
        raise ConfigError(f"JSON cannot record the non-finite settings {unrecordable} in a manifest")
    blob = json.dumps(doc, sort_keys=True, allow_nan=False).encode()
    doc["config_sha256"] = hashlib.sha256(blob).hexdigest()
    doc["versions"] = {"mdma_relay": __version__, "numpy": np.__version__}
    return doc


# ---------------------------------------------------------------------------
# Validation: the automated theory-vs-simulation oracle suite.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"{status} {c.name}: measured {c.measured:.3e} vs threshold "
                f"{c.threshold:.3e}{' (' + c.detail + ')' if c.detail else ''}"
            )
        return out


def _sigma_gate(analytic: float, empirical: float, n: int, label: str, k: float = 3.0) -> CheckResult:
    sigma = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n) if n else math.inf
    dev = abs(analytic - empirical)
    # Failure counts are whole, so the gate allows half a count on top of k
    # sigma (continuity correction).  Without it a single failure fails a
    # step whose expected count n*p is well below 1: at 10 dBm and 50 000
    # slots the personal2 relay step (n*p = 0.08) failed one run in eight.
    # A zero-variance gate still only passes on exact agreement.
    tol = k * sigma + 0.5 / n if n else math.inf
    return CheckResult(label, dev <= tol + 1e-15, dev, tol)


def validate(
    topology: NetworkTopology,
    config: SystemConfig,
    trials: int = 1_000_000,
    seed: int = 0,
    options: SimOptions = SimOptions(),
) -> ValidationReport:
    """Run the full analytic-vs-numeric oracle suite and report per check."""
    # First, so that a bad seed or slot count is refused before the quadrature.
    est = simulate("mdma", topology, config, trials, seed=seed, options=options)
    # Imported here, not at module level: the oracles load scipy, which no
    # other command needs.
    from .oracles import relay_sum_cdf_quadrature

    checks: list[CheckResult] = []

    # Closed-form relay-sum CDF against the iterated-quadrature oracle, for
    # each source whose step outage uses the closed form.
    gamma_grid = np.linspace(0.2, 3.0, 8) * max(config.gamma_th, 1e-6)
    errors = []
    for source in (1, 2):
        rates = link_rates(topology, config, source)
        fails = decode_fail_probs(topology, config, source)
        gates = [GatedExponential(a, r) for a, r in zip(fails, rates.relay_dest)]
        if not closed_form_applies(gates):
            continue
        closed = relay_sum_cdf(gates)(gamma_grid)
        oracle = relay_sum_cdf_quadrature(gates, gamma_grid)
        errors.append(float(np.max(np.abs(closed - oracle))))
    if errors:
        worst = max(errors)
        checks.append(CheckResult("relay_sum_cdf_vs_quadrature", worst < 1e-7, worst, 1e-7))

    outs = step_outages(topology, config)
    sol = solve_chain(outs, config.beta_s, config.beta_p, config.bandwidth_units, config.power_units)

    for key, analytic in sorted(labelled(outs).items()):
        # The simulator counts only the steps of phases with repetitions.
        stats = est.per_step.get(key)
        if stats is None or stats.attempts == 0:
            continue
        checks.append(_sigma_gate(analytic, stats.op, stats.attempts, f"step_outage:{key}"))

    occ = est.occupancy
    dev = float(np.max(np.abs(occ - sol.stationary)))
    occ_tol = max(5e-3, 20.0 / math.sqrt(max(trials, 1)))
    checks.append(CheckResult("stationary_vs_occupancy", dev < occ_tol, dev, occ_tol))

    checks.append(_sigma_gate(sol.overall_op, est.overall_op, est.attempts, "overall_op_vs_frequency"))

    return ValidationReport(tuple(checks))
