"""Every output of ``simulate``, as a sha256 per case, against recorded digests.

``golden_simulate.json`` maps each case ``CASES`` lists to the sha256 of
its ``to_dict()``, occupancy counts, decode attempts and empties, pair
duration sums, ``trace_to_csv_rows`` of its trace, the ``float.hex`` of
every SNR its traced slots record (only where it traced any), and the slot
of every episode each stream counts within the run (NOMA records no trace, so this
is where a misplaced NOMA slot shows).  It was written
from commit f69a3b8, which placed whole cycles and pairs from cumsums and
walked the one that crossed a chunk end take by take, before every episode
went through one resumable cursor, so a change that keeps these digests
keeps every simulated output exactly.  The no-cooperation cases of MDMA,
TDMA and FDMA (``-nocoop``) were added from commit 6e26645, where the
simulator still zeroed the relays' decode sets itself, before a run without
relay cooperation took infinite source-relay rates instead.  The traced
cases (``-trace`` and ``-nocoop-trace``) were rewritten from commit 0fffeff
when their digests took in the recorded SNRs; that change left the
simulator as it was.  Every case not at -30 dBm was re-recorded from the
child of commit 0acf231, which draws relay-side SNRs only for broadcasts
the destination missed and counts decode sets over those alone; at -30 dBm
the destination misses every broadcast, so those 197 cases read the same
streams and kept the digests recorded before.  The cases run
each scheme at slot counts around a cycle, a draw chunk and the run's end,
with the draws at their shipped caps (``c4096``: broadcast draws sized by
the slots left, up to ``_BCAST_CHUNK`` episodes, and joint draws up to
``_CHUNK``, 4 096) and with every draw capped at 7 episodes (``c7``).  The
digests were recorded when every draw was capped at 4 096 or 7; each
generator is read in order, so no digest depends on the draw sizes.
Rewrite the file only for a change that means to move those numbers:

    PYTHONPATH=src python tests/test_golden_simulate.py
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdma_relay import simulator
from mdma_relay.simulator import SCHEMES, SimOptions, simulate, trace_to_csv_rows
from mdma_relay.topology import default_paper_setup

GOLDEN = Path(__file__).with_name("golden_simulate.json")
LINKS = ("-30dBm", "4dBm", "10dBm", "30dBm", "noiseless")
NOCOOP = SimOptions(relay_cooperation=False)
NOMA_VARIANTS = {"rho0.1": SimOptions(noma_rho=0.1), "instant": SimOptions(noma_sic_order="instant"),
                 "nocoop": NOCOOP}


def config(link, bits):
    _, cfg = default_paper_setup()
    cfg = replace(cfg, total_bits=float(bits))
    if link == "noiseless":
        return replace(cfg, noise_dbm=-math.inf)
    return replace(cfg, power_dbm=float(link[:-3]))


def cycle(scheme, cfg):
    """Slots per cycle (band schemes) or per pair (NOMA) when nothing fails."""
    return {"mdma": cfg.beta_s + 2 * cfg.beta_p, "tdma": 2 * cfg.beta_t}.get(scheme, cfg.beta_t)


def cases():
    """(id, scheme, link, bits, slots, chunk, options)."""
    out = []

    def add(scheme, link, bits, slots, chunk, tag="", options=SimOptions()):
        out.append((f"{scheme}{tag}-{link}-b{bits}-s{slots}-c{chunk}", scheme, link, bits, slots, chunk, options))

    for chunk in (4096, 7):
        # A long run, shorter at the 7-episode chunk, which refills every few slots.
        long = 20_000 if chunk > 7 else 1_000
        for scheme in SCHEMES:
            for link in LINKS:
                for bits in (1, 10, 25):
                    c = cycle(scheme, config(link, bits))
                    for slots in sorted({1, c - 1, c, c + 1, chunk + 1} - {0}):
                        add(scheme, link, bits, slots, chunk)
                add(scheme, link, 10, long if scheme != "noma" else max(long, 3_000), chunk)
        for scheme in ("mdma", "tdma", "fdma"):
            for link in ("4dBm", "10dBm", "30dBm"):
                add(scheme, link, 10, min(long, 3_000), chunk, "-trace", SimOptions(trace_limit=3_000))
        for scheme in ("mdma", "tdma", "fdma"):
            for link in LINKS:
                c = cycle(scheme, config(link, 10))
                for slots in sorted({1, c - 1, c, c + 1, chunk + 1, long}):
                    add(scheme, link, 10, slots, chunk, "-nocoop", NOCOOP)
                add(scheme, link, 10, min(long, 3_000), chunk, "-nocoop-trace", replace(NOCOOP, trace_limit=3_000))
        for tag, options in NOMA_VARIANTS.items():
            for link in LINKS:
                for slots in (1, 9, 10, 11, chunk + 1, long):
                    add("noma", link, 10, slots, chunk, f"-{tag}", options)
    for link in LINKS:
        add("noma", link, 10, 50_000, 4096)
    return out


CASES = cases()


def digest(scheme, link, bits, slots, options):
    topo, _ = default_paper_setup()
    counted = {}  # stream -> start slot of each episode it counts, in order

    def spy(cls):
        def count(self, idx, start, rep, tag, _count=cls.count):
            stream = f"{type(self).__name__}{getattr(self, 'source', '')}"
            counted.setdefault(stream, []).extend(start[start < slots].tolist())
            _count(self, idx, start, rep, tag)
        return count

    with pytest.MonkeyPatch.context() as m:
        for cls in (simulator._BcastStream, simulator._JointStream):
            m.setattr(cls, "count", spy(cls))
        est = simulate(scheme, topo, config(link, bits), slots, seed=4, options=options)
    out = [est.to_dict(), est.occupancy_counts.tolist(), est.decode_attempts, est.decode_empties,
           float.hex(est.pair_duration_sum), float.hex(est.pair_duration_sumsq),
           trace_to_csv_rows(est.trace), sorted(counted.items())]
    if est.trace:  # the SNRs each traced slot records; the CSV rows leave them out
        out.append([{name: [float.hex(v) for v in np.ravel(snr).tolist()] for name, snr in sorted(ev.snrs.items())}
                    for ev in est.trace])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert list(golden) == [case[0] for case in CASES]


@pytest.mark.parametrize("chunk", [4096, 7])
def test_simulate_keeps_its_recorded_outputs(golden, chunk, monkeypatch, draw_cap):
    if chunk == 7:
        draw_cap(chunk)
    sizes = {"broadcast": [], "joint": []}  # episodes per draw
    bcast_draw, joint_draw = simulator._Episodes.draw, simulator._JointStream.draw

    def bcast(self, n):
        sizes["broadcast"].append(n)
        return bcast_draw(self, n)

    def joint(self, left):  # a joint stream sizes its draw from the slots left
        ep = joint_draw(self, left)
        sizes["joint"].append(ep["cum_len"].size - 1)
        return ep

    monkeypatch.setattr(simulator._Episodes, "draw", bcast)
    monkeypatch.setattr(simulator._JointStream, "draw", joint)
    got = {case_id: digest(scheme, link, bits, slots, options)
           for case_id, scheme, link, bits, slots, c, options in CASES if c == chunk}
    assert got == {k: golden[k] for k in got}
    # The cases reach each cap, and no draw passes it.
    assert max(sizes["broadcast"]) == simulator._BCAST_CHUNK
    assert max(sizes["joint"]) == simulator._CHUNK


if __name__ == "__main__":
    doc = {}
    shipped = simulator._BCAST_CHUNK, simulator._CHUNK
    for case_id, scheme, link, bits, slots, chunk, options in CASES:
        simulator._BCAST_CHUNK, simulator._CHUNK = shipped if chunk == shipped[1] else (chunk, chunk)
        doc[case_id] = digest(scheme, link, bits, slots, options)
    GOLDEN.write_text("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
                      + "\n}\n", encoding="utf-8")
