"""Workload inputs: the operating points and CLI argument lists of each workload.

Everything here is plain data derived from the workload name and seed.
`write_inputs` is the only part that uses the program: it builds the
topologies and writes the config and spec files the commands read, which
is the set-up a user pays before running a command.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("analyze-grid", "analyze-edge", "sweep-paper")

# Reference system of `--paper-defaults` (README): the oracle needs the same
# numbers, so they are restated here rather than read from the program.
NOISE_DBM = -50.0
RATE_R0 = 1.0
TOTAL_BITS = 10.0
ALPHA = 3.0
S1, S2, DEST = (20.0, 20.0), (0.0, 20.0), (100.0, 0.0)
PAPER_RELAYS = 8
POWER_GRID = tuple(float(p) for p in range(0, 31, 2))
SWEEP_TRIALS = 10_000
SWEEP_SCHEMES = ("mdma", "tdma", "fdma", "noma")


def line_relays(m: int) -> tuple[tuple[float, float], ...]:
    """The paper's relay line generalised to m relays: x=50, y=50-100(i-0.5)/m+5."""
    return tuple((50.0, 50.0 - 100.0 * (i - 0.5) / m + 5.0) for i in range(1, m + 1))


def slots(bits: float) -> int:
    """Slot count ceil(bits/rate) with the same float guard the program uses."""
    return max(0, math.ceil(round(bits / RATE_R0, 9)))


@dataclass(frozen=True)
class Point:
    """One `analyze` operating point; relays are on the line layout."""

    relays: int
    power_dbm: float
    eta: float
    granularity: int = 1000

    @property
    def beta_s(self) -> int:
        return slots(self.eta * TOTAL_BITS)

    @property
    def beta_p(self) -> int:
        return slots((1.0 - self.eta) * TOTAL_BITS)


@dataclass(frozen=True)
class Op:
    """One CLI command: its argument list and what it computes."""

    kind: str  # "analyze" or "sweep"
    argv: tuple[str, ...]
    points: tuple[Point, ...]  # analyze: the point; sweep: one per grid value
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    files: dict  # relative file name -> ("config", relays) or ("spec", spec dict)


def _analyze(point: Point, label: str) -> Op:
    if point.relays == PAPER_RELAYS:
        where = ["--paper-defaults"]
    else:
        where = ["--config", f"line{point.relays}.json"]
    argv = ["analyze", *where, "--power-dbm", repr(point.power_dbm),
            "--eta", repr(point.eta), "--granularity", str(point.granularity)]
    return Op("analyze", tuple(argv), (point,), label)


def _grid(rng: random.Random, tiny: bool) -> tuple[list[Op], dict]:
    # Stratified draws: every power of the paper grid, once with eta in each
    # quarter of [0, 1].  The cost of an op depends on power and eta (chain
    # size and mixing), so stratifying keeps the cost mix the same for every
    # seed.
    powers = (0.0, 30.0) if tiny else POWER_GRID
    ops = [
        _analyze(Point(PAPER_RELAYS, p, round(rng.uniform(lo, lo + 0.25), 6)), f"p{p:g}")
        for p in powers for lo in (0.0, 0.25, 0.5, 0.75)
    ]
    rng.shuffle(ops)
    return ops, {}


def _edge(rng: random.Random, tiny: bool) -> tuple[list[Op], dict]:
    # Fixed points at the edges of what the CLI accepts.  The seed only moves
    # eta inside [0.41, 0.49], where beta_s = 5 and beta_p = 6, so every seed
    # does the same work.
    eta = round(rng.uniform(0.41, 0.49), 6)
    spots = [
        ("m10-tied", Point(10, 10.0, eta)),      # tied relay distances
        ("p30", Point(PAPER_RELAYS, 30.0, eta)),  # deep-tail accuracy
    ]
    if not tiny:
        # Cheapest first, so the untraced half of a trace run stops early.
        # Three ops of about 7 s (two chain solves past their iteration
        # limit, one O(n^2) convolution) sit in the middle, so the median is
        # one of them: a long, compute-bound op rather than a short one
        # that swings with the host.
        spots += [
            ("p20", Point(PAPER_RELAYS, 20.0, eta)),
            ("p-8", Point(PAPER_RELAYS, -8.0, eta)),    # chain fails to converge
            ("p-10", Point(PAPER_RELAYS, -10.0, eta)),
            ("n1e5", Point(PAPER_RELAYS, 20.0, eta, 100_000)),
            ("m16", Point(16, 10.0, eta)),       # 2^16 subset terms
        ]
    ops = [_analyze(pt, label) for label, pt in spots]
    files = {f"line{pt.relays}.json": ("config", pt.relays)
             for _, pt in spots if pt.relays != PAPER_RELAYS}
    return ops, files


def _sweep(seed: int, tiny: bool) -> tuple[list[Op], dict]:
    # The paper grid as one `sweep` command per power value, each over all
    # four schemes.  Commands of about 0.3 s let the host speed be sampled
    # between them often enough to follow it (calib.py); one 5 s command
    # over the whole grid could only be sampled at its two ends.  The
    # program seeds the k-th value of a spec with seed + k, so each command
    # gets seed + k and draws what the whole-grid sweep would.
    values = (0.0, 30.0) if tiny else POWER_GRID
    trials = 1000 if tiny else SWEEP_TRIALS
    ops, files = [], {}
    for k, v in enumerate(values):
        spec = {"parameter": "power_dbm", "values": [v],
                "schemes": list(SWEEP_SCHEMES), "trials": trials, "seed": seed + k}
        name = f"spec{v:g}.json"
        argv = ["sweep", "--paper-defaults", "--spec", name, "--out", "sweep-out"]
        if tiny:
            argv.append("--allow-small-trials")
        ops.append(Op("sweep", tuple(argv), (Point(PAPER_RELAYS, v, 0.5),), f"sweep{v:g}"))
        files[name] = ("spec", spec)
    return ops, files


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The ops of one workload; `tiny` keeps a few cheap ones for smoke tests."""
    rng = random.Random(f"{name}:{seed}")
    if name == "analyze-grid":
        ops, files = _grid(rng, tiny)
    elif name == "analyze-edge":
        ops, files = _edge(rng, tiny)
    elif name == "sweep-paper":
        ops, files = _sweep(seed, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(name, seed, tuple(ops), files)


def write_inputs(workload: Workload, workdir: Path) -> tuple[Op, ...]:
    """Build the topologies and write the input files; return ops with absolute paths."""
    from mdma_relay.topology import NetworkTopology, SystemConfig, save_setup

    for fname, (kind, payload) in workload.files.items():
        path = workdir / fname
        if kind == "config":
            topo = NetworkTopology(S1, S2, DEST, line_relays(payload), ALPHA)
            cfg = SystemConfig(noise_dbm=NOISE_DBM, rate_r0=RATE_R0, total_bits=TOTAL_BITS)
            save_setup(path, topo, cfg)
        else:
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    names = set(workload.files) | {"sweep-out"}
    return tuple(
        Op(op.kind, tuple(str(workdir / a) if a in names else a for a in op.argv),
           op.points, op.label)
        for op in workload.ops
    )
