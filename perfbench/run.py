"""Benchmark of the mdma-relay command line, driven in-process.

    python3 perfbench/run.py --workload analyze-grid --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each measured operation is one real
`mdma_relay.cli.main([...])` command (`analyze` or `sweep`), with its
argument parsing and output.  Set-up (input files, reference values) happens
before the timed region; `setup_s` is the median of several fresh processes
that import the package and build the workload's inputs (setup_probe.py).
Reported times are wall times scaled to a reference host speed, which is
measured while no command runs (calib.py); the report also gives raw ones.

The run repeats whole passes over the workload's ops until `--seconds` have
passed.  With `--trace 1` it runs traced for half the time (at least one
whole pass), then untraced for the other half, and reports per-layer
metrics.  A report goes to standard output; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  See BENCHMARK.json and
perfbench/DESIGN.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One process and one thread: numpy's BLAS would start a thread per core, and
# on a 2-core box those threads made np.convolve times erratic (n=5e4 took
# 0.5 s with one thread, 1.6 to 20 s with two).  This must run before numpy
# loads, so only when this file is the program, not when tests import it.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

from calib import HostSpeed  # noqa: E402
from checks import check_analyze, check_sweep  # noqa: E402
from oracle import Reference  # noqa: E402
from spans import Tracer, layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, Op, make_workload, write_inputs  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import mdma_relay from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "mdma_relay" / "__init__.py").is_file():
        raise ProgramMissing(f"no mdma_relay package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mdma_relay
    from mdma_relay import cli

    if Path(mdma_relay.__file__).resolve().parent != (src / "mdma_relay").resolve():
        raise ProgramMissing(f"mdma_relay imported from {mdma_relay.__file__}, not {src}")
    return cli


def stamp() -> dict:
    """Where the numbers come from, so results of different machines are not mixed."""
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@dataclass
class Result:
    op: int
    seconds: float  # wall time
    scaled: float  # wall time at the reference host speed
    status: str  # ok | refused | failed
    kind: str = ""  # why it failed: the exception's class or "check"
    detail: str = ""
    rel_err: float | None = None


@dataclass
class Runner:
    """Runs and checks ops, and keeps their results."""

    cli: object
    ops: tuple[Op, ...]
    ref: Reference
    tracer: Tracer | None = None
    speed: HostSpeed | None = None  # sampled between commands, never during one
    results: list[Result] = field(default_factory=list)

    def execute(self, i: int) -> Result:
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        exc = None
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        if self.tracer:
            self.tracer.op = len(self.results)
        t0 = perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except SystemExit as e:  # argparse rejects its arguments this way
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # every failure is counted, and the run carries on
            rc, exc = None, e
        dt = perf_counter() - t0
        times = (i, dt, self.speed.scale(dt) if self.speed else dt)
        if exc is not None:
            res = Result(*times, "failed", type(exc).__name__, str(exc)[:200])
        elif rc == 2:
            res = Result(*times, "refused", detail=err.getvalue().strip()[:200])
        elif rc != 0:
            res = Result(*times, "failed", "exit code", str(rc))
        else:
            problems, worst = self.check(op, out.getvalue())
            if problems:
                res = Result(*times, "failed", "check", "; ".join(problems)[:300])
            else:
                res = Result(*times, "ok", rel_err=worst)
        self.results.append(res)
        return res

    def check(self, op: Op, text: str) -> tuple[list[str], float]:
        """Problems with an op's output; output the checks cannot read is one."""
        try:
            if op.kind == "analyze":
                return check_analyze(text, op, self.ref)
            csv_path = Path(op.argv[op.argv.index("--out") + 1]) / "sweep_power_dbm.csv"
            return check_sweep(csv_path, op, self.ref)
        except Exception as exc:
            return [f"unreadable {op.kind} output: {exc!r}"], 0.0

    def run(self, seconds: float, whole_passes: bool = True) -> list[Result]:
        """Passes over the ops until `seconds` have passed; stop mid-pass if not `whole_passes`."""
        first = len(self.results)
        if self.speed:
            self.speed.begin()
        t0 = perf_counter()
        while True:
            for i in range(len(self.ops)):
                self.execute(i)
                if not whole_passes and perf_counter() - t0 >= seconds:
                    return self.results[first:]
            if perf_counter() - t0 >= seconds:
                return self.results[first:]


def measure_setup(workload: str, seed: int, samples: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds to import mdma_relay and build the inputs, each in
    a fresh process."""
    speed = HostSpeed()
    times = []
    for _ in range(samples):
        with work_dir() as wd:
            speed.begin()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(wd)],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            raw = float(proc.stdout.strip().splitlines()[-1])
            times.append((raw, speed.scale(raw)))
    return times


@contextlib.contextmanager
def work_dir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def p90(times: list[float]) -> dict:
    """Nearest-rank 90th percentile in ms, and how many samples lie beyond it."""
    times = sorted(times)
    p = times[max(0, math.ceil(len(times) * 0.9) - 1)]
    return {"p90_ms": 1e3 * p, "beyond": sum(t > p for t in times)}


def per_op(results: list[Result], attr: str) -> list[float]:
    """Each op's median time over its runs."""
    runs: dict[int, list[float]] = {}
    for r in results:
        runs.setdefault(r.op, []).append(getattr(r, attr))
    return [statistics.median(v) for v in runs.values()]


def summarize(results: list[Result], ops: tuple[Op, ...]) -> dict:
    failed = [r for r in results if r.status == "failed"]
    errs = [r.rel_err for r in results if r.rel_err is not None]
    kinds: dict[str, int] = {}
    for r in failed:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    return {
        "attempted": len(results),
        "failed": len(failed),
        "refused": sum(r.status == "refused" for r in results),
        "check_failures": kinds.get("check", 0),
        "failure_kinds": kinds,
        # An op that prints nothing adds no error; with no output at all, 1.0.
        "max_rel_err": max(errs) if errs else 1.0,
        "first_failures": sorted({f"{ops[r.op].label}: {r.kind}: {r.detail}" for r in failed})[:5],
        "p90": p90([r.scaled for r in results]),
        "per_op_raw": per_op(results, "seconds"),
        "per_op": per_op(results, "scaled"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; return (final result object, report)."""
    cli = load_program()
    setup = measure_setup(name, seed, setup_samples) if setup_samples and not trace else []
    speed = HostSpeed()
    wl = make_workload(name, seed, tiny)
    with work_dir() as wd:
        ops = write_inputs(wl, wd)
        ref = Reference()
        ref.prepare(p for op in ops for p in op.points)
        runner = Runner(cli, ops, ref, speed=speed)
        if not trace:
            results = runner.run(seconds)
        else:
            tracer = runner.tracer = Tracer()
            with tracer.patched():
                traced = runner.run(seconds / 2)
            runner.tracer = None
            plain = runner.run(seconds / 2, whole_passes=False)
            results = traced + plain

    s = summarize(results, ops)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "stamp": stamp(), "setup_samples_s": setup, **s,
              "error_rate": s["failed"] / s["attempted"]}
    if not trace:
        report["host_factor"] = statistics.median(speed.factors)
        report["calibration_samples"] = speed.samples
        metrics = {
            "setup_s": (statistics.median(t for _, t in setup) if setup else 0.0, "s"),
            "cmd_p50_ms": (1e3 * statistics.median(s["per_op"]), "ms"),
            "cmd_mean_ms": (1e3 * statistics.fmean(s["per_op"]), "ms"),
            "max_rel_err": (s["max_rel_err"], "1"),
            "ok_share": (1.0 - report["error_rate"], "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # Overhead: per op seen in both phases, median traced minus median
        # untraced, both at the reference host speed.  The traced half runs
        # first and pays the cold start, so this is an upper bound.
        by_op: dict[int, tuple[list, list]] = {}
        for r in plain:
            by_op.setdefault(r.op, ([], []))[0].append(r.scaled)
        for r in traced:
            if r.op in by_op:
                by_op[r.op][1].append(r.scaled)
        pairs = [(statistics.median(a), statistics.median(b)) for a, b in by_op.values() if b]
        over = statistics.median(b - a for a, b in pairs)
        share = statistics.median((b - a) / a for a, b in pairs)
        report["trace_overhead_ops"] = len(pairs)
        layer = layer_metrics(tracer.spans, len(traced), 1e3 * over, share)
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    final = {
        "correct": s["check_failures"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return final, report


def print_report(final: dict, report: dict) -> None:
    print(f"# perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("# stamp " + json.dumps(report["stamp"], sort_keys=True))
    print(f"# ops attempted={report['attempted']} failed={report['failed']} "
          f"refused={report['refused']} check_failures={report['check_failures']} "
          f"error_rate={report['error_rate']:.4g} kinds={json.dumps(report['failure_kinds'])}")
    for detail in report["first_failures"]:
        print(f"#   failure: {detail}")
    n, ops = report["attempted"], len(report["per_op"])
    for name, m in final["metrics"].items():
        extra = f"  (median of {n // ops} runs of each of {ops} ops)" if name.startswith("cmd_") else ""
        print(f"# {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    if report["trace"] == 0:
        tail, raw = report["p90"], report["per_op_raw"]
        if tail["beyond"] >= 10:
            print(f"# {'cmd_p90_ms':40s} {tail['p90_ms']:.6g} ms  "
                  f"(all {n} runs, {tail['beyond']} beyond)")
        else:
            print(f"# cmd_p90_ms not reported: {tail['beyond']} samples beyond it (< 10)")
        print(f"# times above are at the reference host speed; median host factor "
              f"{report['host_factor']:.4f} ({report['calibration_samples']} calibration "
              f"samples, taken between commands)")
        print(f"# raw wall time: p50 {1e3 * statistics.median(raw):.6g} ms, "
              f"mean {1e3 * statistics.fmean(raw):.6g} ms")
        print(f"# one pass over the {ops} ops: {sum(report['per_op']):.6g} s "
              f"({sum(raw):.6g} s raw)")
        print("# setup samples (s), raw -> scaled: "
              + ", ".join(f"{r:.4f} -> {t:.4f}" for r, t in report["setup_samples_s"]))
    else:
        print(f"# trace overhead compared over {report['trace_overhead_ops']} ops")
    print(json.dumps(final))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        final, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ProgramMissing, ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(final, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
