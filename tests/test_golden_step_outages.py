"""Every ``step_outages`` field, bit for bit, against values recorded as hex.

``golden_step_outages.json`` holds ``float.hex`` of each source's
``bcast``, ``relay`` and ``empty`` at the cases ``CASES`` lists.  It was
written from commit 2c15618, before the relay step moved to array pairs,
so a change that keeps these bits keeps the shipped outages exactly.  The
tied ``line10`` entries with n > 1 were rewritten when tied and over-cap
relay sums moved from convolved per-path masses to the bins of the exact
phase-type law.  Their ``relay`` fields were rewritten again, at every n,
when tied and over-cap relay steps became one exact absorption probability
of that law with the direct SNR in front (``relay_step_outage``), which
no longer depends on n; their ``bcast`` and ``empty`` fields kept their
bits.  The 24 paper entries at n = 1e5 from
5 to 40 dBm were rewritten when the basis product went to fixed row blocks:
OpenBLAS had split it over its threads, so those bits depended on the thread
count, and the rewritten bits are what one thread gave before.  The
``relay`` fields of the 39 paper entries at n = 1e5 from -20 to 40 dBm were
rewritten again when the closed form stopped being binned past one basis
block of 4 096 edges: there the relay step is ``relay_step_outage``, as on
tied layouts, because binning cost more and its cancellation noise had piled
up to 8.3e5 relative at 20 dBm.  Their ``bcast`` and ``empty`` fields, and
the entries at -30 and -25 dBm, where no relay decodes, kept their bits.
The ``relay`` fields of the same 39 paper entries and of the 20 ``line10``
entries, every entry that takes the exact step, were rewritten once more
when that step stopped squaring a matrix exponential and summed the rows of
its jump matrix's powers instead: each moved by at most 1.3e-15 relative,
rounding, and each new value is within 6e-16 of 60 digits.
Every other entry keeps its first bits.  Rewrite it only for a change that means to move
those numbers:

    PYTHONPATH=src python tests/test_golden_step_outages.py
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mdma_relay.analytic import step_outages
from mdma_relay.topology import default_paper_setup

from layouts import line_topology

GOLDEN = Path(__file__).with_name("golden_step_outages.json")


def cases():
    """(id, layout, config edits); the layout is "paper" or "line<m>"."""
    out = []
    for power in range(-30, 41, 5):
        for eta in (0.0, 0.45, 1.0):
            for n in (1, 2, 7, 1000, 100_000):
                out.append((f"paper-{power}dBm-eta{eta}-n{n}", "paper",
                            {"power_dbm": float(power), "eta": eta, "granularity": n}))
    for layout in ("line16", "line10"):  # line10 is tied: relay_step_outage
        for power in (-10, 0, 10, 20, 30):
            for n in (1, 2, 7, 1000):
                out.append((f"{layout}-{power}dBm-n{n}", layout,
                            {"power_dbm": float(power), "granularity": n}))
    out.append(("paper-noiseless", "paper", {"noise_dbm": float("-inf")}))
    return out


CASES = cases()
# The largest basis products that reach the outputs, the closed form binned
# on 4 095 bins, one basis block; and the exact step's row series, on the
# paper layout at 4 096 bins and on the tied line10.
THREAD_CASES = [
    *((f"paper-{power}dBm-eta{eta}-n{n}", "paper", {"power_dbm": float(power), "eta": eta, "granularity": n})
      for n in (4095, 4096) for power in range(-30, 41, 5) for eta in (0.0, 0.45, 1.0)),
    *((f"line16-{power}dBm-n4095", "line16", {"power_dbm": float(power), "granularity": 4095})
      for power in (-10, 0, 10, 20, 30)),
    *((f"line10-{power}dBm-n1000", "line10", {"power_dbm": float(power), "granularity": 1000})
      for power in (-10, 0, 10, 20, 30)),
]


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


def test_step_outages_do_not_depend_on_the_blas_thread_count():
    """OpenBLAS reads its thread count when it loads, so each count gets a
    process of its own.  Asked for 3 threads (it runs at most one per core),
    it split an n = 1e5 basis product in one, and one thread did not."""
    here = Path(__file__).resolve().parent
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; import test_golden_step_outages as g; "
            "print(json.dumps({c: g.record(layout, edits) for c, layout, edits in g.THREAD_CASES}))")
    outs = [subprocess.run([sys.executable, "-c", code, str(here), str(here.parent / "src")],
                           env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, text=True, check=True, timeout=300).stdout
            for threads in ("1", "3")]
    assert len(json.loads(outs[0])) == len(THREAD_CASES)
    assert outs[0] == outs[1]


if __name__ == "__main__":
    doc = {case_id: record(layout, edits) for case_id, layout, edits in CASES}
    GOLDEN.write_text("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
                      + "\n}\n", encoding="utf-8")
