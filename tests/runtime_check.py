"""End-to-end checks of the command-line program, as a user runs it.

    python tests/runtime_check.py WORKDIR COMMAND [ARG...]

COMMAND is the program to check: an installed ``mdma-relay``, or
``python -m mdma_relay.cli``.  WORKDIR is a scratch directory for its
inputs and outputs.  The script imports only the standard library, the
package and ``tests/layouts.py``, so it runs in an install without the test
extra, where a scipy import outside the tests would fail these commands.
numpy is the only runtime dependency.  Each check runs commands and fails
on an unexpected exit status, stderr line or output byte:

- ``analyze --paper-defaults``: the closed form and the chain.
- A standard output whose reader has exited: one ``error:`` line on stderr,
  no traceback, exit status 2.
- A tied 10-relay line and a 24-relay line: the exact relay step.
- The paper layout at 20 dBm and a 16-relay line past one basis block of
  4 096 edges: at the largest granularity the CLI accepts, 1e6 bins, each
  prints the bytes it prints at 4 096 bins.  So does the paper layout at
  -12 dBm, where the exact step sums its longest series, 512 terms, and at
  -10 dBm, where one source closes a relay the other keeps open, which
  stays in that source's chain, so both take one series.
- The paper layout at 0 dBm on one bin prints the bytes it prints at 4 096
  bins: one bin takes the exact step, not a binned sum of nothing.
- The 16-relay line at 10 dBm, and the 10-relay line with its ties broken
  by 1e-6, print at 1 000 bins the bytes they print at 4 096: past the
  closed form's condition bound the relay step is exact at any bin count.
- ``validate`` with and without relay cooperation: the oracle checks.
- ``validate`` of the noiseless paper layout (``noise_dbm`` -inf), with
  and without relay cooperation, exits 0: no broadcast is missed, so no
  relay step is taken and the closed form is not checked.
- Resource units whose product is below the normal floats, 1e-300 times
  1e-300 (0) and 1e-320 times 1 (2 over it is inf): ``analyze``,
  ``dump-chain``, ``validate``, ``simulate`` of every scheme and ``sweep``
  each exit 2 with one identical ``error:`` line and no traceback.  So do
  six malformed topologies of the paper layout, whose numbers were once
  read with ``float()``: ``"s1": "20"`` (read as (2, 0)), ``"relays":
  ["55", "45"]``, ``"s1": [20, 20, 99]`` (the 99 dropped), ``"s1": [true,
  20]`` (read as (1, 20)), ``"alpha": true`` (read as 1) and ``"alpha":
  "3"``.
- Relay 1 1e-200 from source 1, so that its link's rate underflows to 0:
  ``validate`` passes (only that relay always decodes).
- Relay 1 1e-200 from the destination: ``simulate`` refuses the layout, as
  ``analyze`` does, with exit status 2.  So does source 1 1e-110 from it:
  ``simulate`` writes ``analyze``'s ``error:`` line.
- Source 1 1e103 away, where distance**alpha overflows: ``analyze`` and
  ``simulate`` print an ``overall_op`` of 1.0 and write nothing on stderr.
  So does ``analyze`` of the destination 1e103 away.  Relay 1 1e103 away:
  ``analyze`` writes nothing on stderr.
- Source 1's direct link overflowing, a direct SNR of 0, beside
  well-conditioned relays, beside tied ones, and beside an open relay whose
  link to the destination overflows too: ``analyze`` prints at 1 000 bins
  the bytes it prints at 4 096, and it and ``simulate`` of MDMA and NOMA
  write nothing on stderr.  Nor does ``simulate`` with relay 1 0.1 from
  source 1 at 3030 dBm, a subnormal rate whose mean SNR overflows.
- ``simulate`` of every scheme.
- A 30 dBm trace, where the destination decodes almost every broadcast:
  it reads relay-side SNRs drawn for the missed broadcasts only.
- One-point sweeps of all four schemes sharing one pool of broadcast draws,
  and again without relay cooperation.  At 5 000 trials each source's draws
  fit one chunk; at 50 000 the schemes read several, each sized by the
  slots its first reader had left.
- At 3e6 trials source 1's chunks pass the 16 MiB a pool keeps, so FDMA
  draws its tail itself, from the source's generators: the point's CSV is
  byte for byte the header and the rows of the four one-scheme sweeps.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from layouts import (far_topology, line_topology, near_source_topology, subnormal_rate_setup, underflow_topology,
                     zero_snr_direct_setup)
from mdma_relay.topology import config_to_dict, default_paper_setup, save_setup, topology_to_dict

SCHEMES = ("mdma", "tdma", "fdma", "noma")


def _run(command: list[str], *args: str, status: int = 0, **kwargs) -> subprocess.CompletedProcess:
    print("$", *command, *args, flush=True)
    done = subprocess.run([*command, *args], **kwargs)
    if done.returncode != status:
        raise SystemExit(f"exit status {done.returncode}, expected {status}: {' '.join([*command, *args])}")
    return done


def _same_bytes(a: Path, b: Path) -> None:
    if a.read_bytes() != b.read_bytes():
        raise SystemExit(f"{a} and {b} differ")


def _closed_stdout(command: list[str]) -> None:
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run(command, "analyze", "--paper-defaults", status=2, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    lines = done.stderr.splitlines()
    if not any(re.fullmatch(r"error: cannot write standard output: .*", line) for line in lines):
        raise SystemExit(f"no error line for a closed standard output: {done.stderr!r}")
    if "Traceback" in done.stderr:
        raise SystemExit(f"a closed standard output gave a traceback: {done.stderr}")


def _refused_alike(command: list[str], work: Path, name: str, doc: dict, spec: Path) -> None:
    """Every command exits 2 on configuration ``doc``, with one identical
    ``error:`` line and no traceback."""
    config = work / f"{name}.json"
    config.write_text(json.dumps(doc))
    runs = [["analyze"], ["dump-chain"], ["validate", "--trials", "2000"],
            *(["simulate", "--scheme", scheme, "--trials", "2000"] for scheme in SCHEMES),
            ["sweep", "--allow-small-trials", "--spec", str(spec), "--out", str(work / name)]]
    errors = {_run(command, *run, "--config", str(config), status=2, capture_output=True, text=True).stderr
              for run in runs}
    if len(errors) != 1 or not re.fullmatch(r"error: [^\n]*\n", next(iter(errors))):
        raise SystemExit(f"{name} is refused otherwise by some command: {errors}")


def _sweep(command: list[str], work: Path, name: str, schemes, trials: int, *flags: str) -> Path:
    spec = work / f"{name}.json"
    spec.write_text(json.dumps({"parameter": "power_dbm", "values": [10.0], "schemes": list(schemes),
                                "trials": trials}))
    _run(command, "sweep", "--paper-defaults", *flags, "--spec", str(spec), "--out", str(work / name),
         stdout=subprocess.DEVNULL)
    return work / name / "sweep_power_dbm.csv"


def run(command: list[str], work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    quiet = {"stdout": subprocess.DEVNULL}
    _run(command, "analyze", "--paper-defaults", **quiet)
    _closed_stdout(command)

    for m in (10, 16, 24):
        save_setup(work / f"line{m}.json", line_topology(m), default_paper_setup()[1])
    save_setup(work / "line10-near-tie.json", line_topology(10, tie_gap=1e-6), default_paper_setup()[1])
    for name, origin in (("source1", (20.0, 20.0)), ("destination", (100.0, 0.0))):
        save_setup(work / f"underflow-{name}.json", underflow_topology(origin), default_paper_setup(power_dbm=4.0)[1])
    for m in (10, 24):
        _run(command, "analyze", "--config", str(work / f"line{m}.json"), **quiet)

    same = {
        "paper": (["--paper-defaults", "--power-dbm", "20"], ("4096", "1000000")),
        "line16": (["--config", str(work / "line16.json")], ("4096", "1000000")),
        "paper-12dBm": (["--paper-defaults", "--power-dbm", "-12"], ("4096", "1000000")),
        "paper-10dBm": (["--paper-defaults", "--power-dbm", "-10"], ("4096", "1000000")),
        "paper-0dBm": (["--paper-defaults", "--power-dbm", "0"], ("1", "4096")),
        "line16-10dBm": (["--config", str(work / "line16.json"), "--power-dbm", "10"], ("1000", "4096")),
        "line10-near-tie": (["--config", str(work / "line10-near-tie.json")], ("1000", "4096")),
    }
    for name, (where, ns) in same.items():
        outs = [work / f"{name}-n{n}.json" for n in ns]
        for n, out in zip(ns, outs):
            _run(command, "analyze", *where, "--granularity", n, "--out", str(out))
        _same_bytes(*outs)

    _run(command, "validate", "--paper-defaults", "--trials", "20000", **quiet)
    _run(command, "validate", "--paper-defaults", "--trials", "20000", "--no-relay-cooperation", **quiet)
    _run(command, "validate", "--config", str(work / "underflow-source1.json"), "--trials", "200000", **quiet)
    paper, paper_config = default_paper_setup()
    save_setup(work / "noiseless.json", paper, replace(paper_config, noise_dbm=-math.inf))
    for flags in ([], ["--no-relay-cooperation"]):
        _run(command, "validate", "--config", str(work / "noiseless.json"), "--trials", "20000", *flags, **quiet)
    spec = work / "units-spec.json"
    spec.write_text(json.dumps({"parameter": "power_dbm", "values": [10.0], "schemes": list(SCHEMES), "trials": 2000}))
    for bandwidth, power in ((1e-300, 1e-300), (1e-320, 1.0)):
        system = dict(config_to_dict(paper_config), bandwidth_units=bandwidth, power_units=power)
        _refused_alike(command, work, f"units-{bandwidth:g}-{power:g}",
                       {"topology": topology_to_dict(paper), "system": system}, spec)
    malformed = {"string-coordinate": {"s1": "20"}, "string-relays": {"relays": ["55", "45"]},
                 "three-numbers": {"s1": [20, 20, 99]}, "boolean-coordinate": {"s1": [True, 20]},
                 "boolean-alpha": {"alpha": True}, "string-alpha": {"alpha": "3"}}
    for name, edit in malformed.items():
        _refused_alike(command, work, name, {"topology": dict(topology_to_dict(paper), **edit), "system": {}}, spec)
    _run(command, "simulate", "--config", str(work / "underflow-destination.json"), "--trials", "20000",
         status=2, **quiet)
    save_setup(work / "near-source.json", near_source_topology(), default_paper_setup()[1])
    errors = [_run(command, name, "--config", str(work / "near-source.json"), status=2, capture_output=True,
                   text=True).stderr for name in ("analyze", "simulate")]
    if errors[0] != errors[1] or not errors[0].startswith("error: "):
        raise SystemExit(f"simulate and analyze refuse source 1 on top of the destination otherwise: {errors}")
    for node in ("source1", "relay1", "destination"):
        save_setup(work / f"far-{node}.json", far_topology(node), default_paper_setup()[1])
    far = [("source1", "analyze"), ("source1", "simulate", "--scheme", "mdma", "--trials", "20000"),
           ("relay1", "analyze"), ("destination", "analyze")]
    for node, *args in far:
        done = _run(command, *args, "--config", str(work / f"far-{node}.json"), capture_output=True, text=True)
        if done.stderr or (node != "relay1" and json.loads(done.stdout)["overall_op"] != 1.0):
            raise SystemExit(f"{' '.join(args)} of far {node}: stdout {done.stdout!r}, stderr {done.stderr!r}")
    for layout in ("separated", "tied", "open-relay", "subnormal-rate"):
        config = work / f"{layout}.json"
        save_setup(config, *(subnormal_rate_setup() if layout == "subnormal-rate" else zero_snr_direct_setup(layout)))
        ns = () if layout == "subnormal-rate" else ("1000", "4096")
        runs = [["analyze", "--granularity", n, "--out", str(work / f"{layout}-n{n}.json")] for n in ns]
        runs += [["simulate", "--scheme", scheme, "--trials", "20000"] for scheme in ("mdma", "noma")]
        for args in runs:
            done = _run(command, *args, "--config", str(config), capture_output=True, text=True)
            if done.stderr:
                raise SystemExit(f"{' '.join(args)} of the {layout} layout: stderr {done.stderr!r}")
        if ns:
            _same_bytes(*(work / f"{layout}-n{n}.json" for n in ns))
    for scheme in SCHEMES:
        _run(command, "simulate", "--paper-defaults", "--scheme", scheme, "--trials", "20000", **quiet)
    _run(command, "simulate", "--paper-defaults", "--scheme", "mdma", "--power-dbm", "30", "--trials", "20000",
         "--trace-slots", "2000", "--trace-out", str(work / "trace30.csv"), **quiet)

    _sweep(command, work, "sweep", SCHEMES, 5000, "--allow-small-trials")
    _sweep(command, work, "sweep50k", SCHEMES, 50_000)
    _sweep(command, work, "sweep-nocoop", SCHEMES, 5000, "--allow-small-trials", "--no-relay-cooperation")
    together = _sweep(command, work, "sweep3m", SCHEMES, 3_000_000).read_bytes().splitlines(keepends=True)
    alone = together[:1]
    for scheme in SCHEMES:
        alone += _sweep(command, work, f"sweep3m-{scheme}", [scheme], 3_000_000).read_bytes().splitlines(keepends=True)[1:]
    if b"".join(alone) != b"".join(together):
        raise SystemExit("the 3e6-trial sweep point is not the rows of its one-scheme sweeps")
    print("runtime check: PASS")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    run(sys.argv[2:], Path(sys.argv[1]))
