"""Tests of the benchmark itself: the reference oracle, a tiny run of each
workload, and that the program's known defects are counted.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")

import run  # noqa: E402
from oracle import Reference, relay_step_outage  # noqa: E402
from spans import Tracer, _self_times  # noqa: E402
from workloads import WORKLOADS, Point, make_workload  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("power_dbm, expected, digits", [
    (0.0, 1.2755e-1, 5), (10.0, 7.49860e-8, 6), (20.0, 1.1189e-15, 5), (30.0, 1.164e-23, 4),
])
def test_oracle_relay_step_outage(power_dbm, expected, digits):
    value = float(relay_step_outage(8, power_dbm, 1))
    assert f"{value:.{digits - 1}e}" == f"{expected:.{digits - 1}e}"


def test_oracle_chain_matches_the_renewal_form():
    # With one source only (eta = 1) every (broadcast, relay) pair of the ring
    # is alike: per broadcast visit the relay state is visited op_b (1 - e)
    # times, so the outage is (op_b + op_b (1 - e) op_r) / (1 + op_b (1 - e)).
    ref = Reference()
    op_b, op_r, empty = ref.steps(8, 10.0)[1]
    with mpmath.mp.workdps(60):
        x = op_b * (1 - empty)
        expected = (op_b + x * op_r) / (1 + x)
        assert abs(ref.overall_op(Point(8, 10.0, 1.0)) / expected - 1) < mpmath.mpf(10) ** -50


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric(name):
    final, report = run.run_workload(name, 3, 0.0, trace=False, tiny=True, setup_samples=1)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert final["correct"] and final["attempted"] >= 1
    assert all(m["value"] > 0 for m in final["metrics"].values())
    assert report["stamp"]["nproc"] >= 1


def test_tiny_traced_run_reports_every_layer_and_restores_the_program():
    from mdma_relay import analytic, cli

    before = (cli.step_outages, analytic.relay_sum_cdf)
    final, _ = run.run_workload("analyze-grid", 3, 0.0, trace=True, tiny=True, setup_samples=0)
    assert set(final["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    m = {k: v["value"] for k, v in final["metrics"].items()}
    assert m["analytic.step_outages.calls_per_op"] == 2.0
    assert m["analytic.relay_sum_cdf.subset_terms"] == 2 ** 8 - 1
    assert m["analytic.step2_outage.conv_macs"] == 1000 ** 2
    assert m["markov.residual"] < 1e-9
    assert (cli.step_outages, analytic.relay_sum_cdf) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("cli.main"):
        with tracer.span("analytic.step_outages"):
            pass
    outer, inner = tracer.spans
    self_outer, self_inner = _self_times(tracer.spans)
    assert inner.parent == 0
    assert self_inner == pytest.approx(inner.end - inner.start)
    assert self_outer == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_known_defects_are_counted_not_hidden(tmp_path):
    # At the seed the tied m=10 layout raises RateTieError and the 30 dBm
    # relay-step outage is off by about 8e10 relative; the benchmark must
    # report both.  The expectations come from calling the program directly,
    # so the test keeps holding once those defects are fixed.
    import contextlib
    import io

    from checks import RELAY_SOURCE
    from mdma_relay import cli
    from oracle import rel_err
    from workloads import write_inputs

    def call(op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(op.argv))
        return out.getvalue()

    raised = 0
    for op in write_inputs(make_workload("analyze-edge", 5, tiny=True), tmp_path):
        try:
            call(op)
        except Exception:
            raised += 1
    _, edge = run.run_workload("analyze-edge", 5, 0.0, trace=False, tiny=True, setup_samples=0)
    assert edge["failed"] == raised
    assert edge["error_rate"] == raised / edge["attempted"]

    op30 = next(op for op in make_workload("analyze-grid", 5, tiny=True).ops
                if op.points[0].power_dbm == 30.0)
    steps = json.loads(call(op30))["step_outages"]
    exact = Reference().steps(8, 30.0)
    worst = max(rel_err(steps[k], exact[src][1]) for k, src in RELAY_SOURCE.items())
    grid, _ = run.run_workload("analyze-grid", 5, 0.0, trace=False, tiny=True, setup_samples=0)
    assert grid["metrics"]["max_rel_err"]["value"] >= worst


def test_unreadable_output_and_argparse_exits_are_counted(tmp_path):
    from types import SimpleNamespace

    from mdma_relay import cli
    from workloads import write_inputs

    ops = write_inputs(make_workload("sweep-paper", 3, tiny=True), tmp_path)
    (tmp_path / "sweep-out").mkdir()
    (tmp_path / "sweep-out" / "sweep_power_dbm.csv").write_text("scheme,value\nmdma,x\n")
    runner = run.Runner(SimpleNamespace(main=lambda argv: 0), ops, Reference())
    res = runner.execute(0)
    assert (res.status, res.kind) == ("failed", "check")

    runner.cli = SimpleNamespace(main=lambda argv: cli.main(["analyze", "--no-such-flag"]))
    assert runner.execute(0).status == "refused"
    assert len(runner.results) == 2


def test_host_speed_is_never_sampled_during_a_command(monkeypatch, tmp_path):
    # Calibration work timed while a command runs would compete with the
    # program for the cores, so a program that used more of them would get
    # a smaller factor and look faster than it is.
    from time import perf_counter
    from types import SimpleNamespace

    import calib
    from workloads import write_inputs

    commands, samples = [], []
    work = calib.calibration_work

    def timed_work():
        t0 = perf_counter()
        work()
        samples.append((t0, perf_counter()))

    def command(argv):
        t0 = perf_counter()
        sum(range(200_000))
        commands.append((t0, perf_counter()))
        return 2

    monkeypatch.setattr(calib, "calibration_work", timed_work)
    ops = write_inputs(make_workload("analyze-grid", 3, tiny=True), tmp_path)
    runner = run.Runner(SimpleNamespace(main=command), ops, Reference(), speed=calib.HostSpeed())
    runner.run(0.0)
    assert len(commands) == len(ops) and samples
    assert not any(c0 < s1 and s0 < c1 for c0, c1 in commands for s0, s1 in samples)
    assert all(r.scaled > 0 for r in runner.results)


def test_one_value_sweeps_draw_what_the_whole_grid_sweep_would(tmp_path):
    import contextlib
    import csv
    import io

    from mdma_relay import cli
    from workloads import write_inputs

    def rows(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0
        out = Path(argv[argv.index("--out") + 1]) / "sweep_power_dbm.csv"
        return list(csv.DictReader(out.open()))

    ops = write_inputs(make_workload("sweep-paper", 9, tiny=True), tmp_path)
    parts = [row for op in ops for row in rows(op.argv)]
    spec = json.loads(Path(ops[0].argv[ops[0].argv.index("--spec") + 1]).read_text())
    spec["values"] = [op.points[0].power_dbm for op in ops]
    (tmp_path / "whole.json").write_text(json.dumps(spec))
    argv = list(ops[0].argv)
    argv[argv.index("--spec") + 1] = str(tmp_path / "whole.json")
    argv[argv.index("--out") + 1] = str(tmp_path / "whole-out")
    assert rows(argv) == parts


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        assert make_workload(name, 7) == make_workload(name, 7)
    assert make_workload("analyze-grid", 7) != make_workload("analyze-grid", 8)
