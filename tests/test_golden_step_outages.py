"""Every ``step_outages`` field, bit for bit, against values recorded as hex.

``golden_step_outages.json`` holds ``float.hex`` of each source's
``bcast``, ``relay`` and ``empty`` at the cases ``CASES`` lists.  It was
written from commit 2c15618, before the relay step moved to array pairs,
so a change that keeps these bits keeps the shipped outages exactly.  The
tied ``line10`` entries with n > 1 were rewritten when tied and over-cap
relay sums moved from convolved per-path masses to the bins of the exact
phase-type law (``relay_sum_bins``); every other entry keeps its first bits.
Rewrite it only for a change that means to move those numbers:

    PYTHONPATH=src python tests/test_golden_step_outages.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from mdma_relay.analytic import step_outages
from mdma_relay.topology import NetworkTopology, default_paper_setup

GOLDEN = Path(__file__).with_name("golden_step_outages.json")


def line_topology(m):
    """The paper layout with its relay line generalised to m relays; m = 10
    ties two relay-destination distances (y = 40 and y = -40)."""
    topo, _ = default_paper_setup()
    relays = tuple((50.0, 55.0 - 100.0 * (i - 0.5) / m) for i in range(1, m + 1))
    return NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos, relays, topo.alpha)


def cases():
    """(id, layout, config edits); the layout is "paper" or "line<m>"."""
    out = []
    for power in range(-30, 41, 5):
        for eta in (0.0, 0.45, 1.0):
            for n in (1, 2, 7, 1000, 100_000):
                out.append((f"paper-{power}dBm-eta{eta}-n{n}", "paper",
                            {"power_dbm": float(power), "eta": eta, "granularity": n}))
    for layout in ("line16", "line10"):  # line10 is tied: relay_sum_bins
        for power in (-10, 0, 10, 20, 30):
            for n in (1, 2, 7, 1000):
                out.append((f"{layout}-{power}dBm-n{n}", layout,
                            {"power_dbm": float(power), "granularity": n}))
    out.append(("paper-noiseless", "paper", {"noise_dbm": float("-inf")}))
    return out


CASES = cases()


def record(layout, edits):
    topo, cfg = default_paper_setup()
    if layout != "paper":
        topo = line_topology(int(layout[4:]))
    outs = step_outages(topo, replace(cfg, **edits))
    return {str(source): {name: float.hex(getattr(out, name)) for name in ("bcast", "relay", "empty")}
            for source, out in outs.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert list(golden) == [case_id for case_id, _, _ in CASES]


@pytest.mark.parametrize("case_id, layout, edits", CASES, ids=[c[0] for c in CASES])
def test_step_outages_keep_their_recorded_bits(golden, case_id, layout, edits):
    assert record(layout, edits) == golden[case_id]


if __name__ == "__main__":
    doc = {case_id: record(layout, edits) for case_id, layout, edits in CASES}
    GOLDEN.write_text("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
                      + "\n}\n", encoding="utf-8")
