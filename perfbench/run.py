"""Benchmark womcode end to end, or layer by layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload session-paper --seed 1 --seconds 30 --trace 0

Every command is ``womcode.cli.main([...])`` called in this process, one at a
time, and every reply is checked.  The report lists each metric with its
unit, better direction and sample count; the last line of standard output is
one JSON object holding the metrics that BENCHMARK.json names for the mode.
Set-up time is measured in fresh child processes of this script
(``--setup-only``), from process start to the first command being ready.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # a run leaves no .pyc files in the checkout

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # session files and span dumps; removed or overwritten per run
# Fresh children per run whose median is setup_s: a child's start moves by
# +-20% from one spawn to the next, so the fast workloads take many; the
# session-large template costs ~1.4 s a child, so it takes fewer.
SETUP_SAMPLES = {"session-paper": 15, "session-large": 7, "plan-sweep": 15}
SETUP_TIMEOUT_S = 60

WORKLOAD_NAMES = ("session-paper", "session-large", "plan-sweep")


def _import_womcode():
    """Import womcode from this checkout's src/, never from anywhere else."""
    if not (SRC / "womcode" / "__init__.py").is_file():
        raise SystemExit(f"error: no womcode package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import womcode

    import_ms = (time.perf_counter() - start) * 1e3
    if SRC.resolve() not in Path(womcode.__file__).resolve().parents:
        raise SystemExit(f"error: womcode was imported from {womcode.__file__}, not {SRC}")
    return womcode, import_ms


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _setup_only(name: str, seed: int) -> int:
    """Child mode: import, set the workload up, report, clean up."""
    _womcode, import_ms = _import_womcode()
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=WORK)
    try:
        workloads.WORKLOADS[name](seed, workdir).setup()
        print(json.dumps({"import_ms": import_ms}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds from spawning a child to its ready line, and its import ms."""
    setup_s, import_ms = [], []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES[name]):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if child.returncode != 0 or not line:
            raise SystemExit(f"error: set-up child exited {child.returncode}")
        setup_s.append(ready - start)
        import_ms.append(json.loads(line)["import_ms"])
    return setup_s, import_ms


def _call(cli, argv: list[str]) -> tuple[int | None, int, str, str | None]:
    """Run one command; return (exit code, ns inside cli.main, stdout, crash)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this op; the run goes on
            rc, crash = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter_ns() - start
    return rc, elapsed, out.getvalue(), crash


class Phase:
    """Latencies, counts and failures of one measured phase."""

    def __init__(self):
        self.latency_ns: dict[str, list[int]] = defaultdict(list)  # untraced, by kind
        self.busy_ns = {False: 0, True: 0}  # by traced
        self.ops = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def _run_phase(cli, workload, seconds: float, tracer) -> Phase:
    """Send commands until the deadline.  In a traced run the steps of odd
    groups run under the tracer and those of even groups on the original
    functions, so both sides see the same mix of commands."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    try:
        for op_id, step in enumerate(workload.steps()):
            if time.perf_counter() >= deadline:
                break
            traced = tracer is not None and step.group % 2 == 1
            if tracer is not None:
                if traced and not tracer.installed:
                    tracer.install()
                elif not traced and tracer.installed:
                    tracer.remove()
                tracer.op_id = op_id
            rc, elapsed, stdout, crash = _call(cli, step.argv)
            phase.attempted += 1
            phase.ops[traced] += 1
            phase.busy_ns[traced] += elapsed
            if not traced:
                phase.latency_ns[step.kind].append(elapsed)
            problem = crash
            if problem is None:
                try:
                    problem = step.check(rc, stdout)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"unreadable reply {stdout!r}: {exc!r}"
            if problem:
                phase.failed += 1
                phase.problems.append(f"{step.kind} {step.argv[:4]}: {problem}")
    finally:
        if tracer is not None:
            tracer.remove()
    return phase


def _pct(values: list[int], q: int) -> float:
    """q-th percentile of nanosecond samples, in ms."""
    if q == 50:
        return statistics.median(values) / 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e6


def _end_to_end(phase: Phase, workload, setup_s: list[float]) -> dict[str, tuple]:
    """name -> (value, unit, better, samples)."""
    m: dict[str, tuple] = {}
    m["setup_s"] = (statistics.median(setup_s), "s", "lower", len(setup_s))
    every = [ns for samples in phase.latency_ns.values() for ns in samples]
    for label, kinds in (("op", None), ("write", ("write",)), ("read", ("read",)), ("plan", ("plan",))):
        samples = every if kinds is None else [ns for k in kinds for ns in phase.latency_ns[k]]
        if samples:
            m[f"{label}_ms_p50"] = (_pct(samples, 50), "ms", "lower", len(samples))
            m[f"{label}_ms_p90"] = (_pct(samples, 90), "ms", "lower", len(samples))
    ops, busy = phase.ops[False], phase.busy_ns[False]
    m["ops_per_s"] = (ops / (busy / 1e9) if busy else 0.0, "1/s", "higher", ops)
    m["error_rate"] = (phase.failed / max(phase.attempted, 1), "share", "lower", phase.attempted)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["peak_rss_mb"] = (rss_mb, "MB", "lower", 1)
    tally = workload.tally
    m["bits_per_wit"] = (tally.code_bits / tally.code_wits if tally.code_wits else 0.0,
                         "bit/wit", "higher", 1)
    if tally.message_bits:
        m["wits_per_bit"] = (tally.wits_programmed / tally.message_bits, "wit/bit", "lower", 1)
    return m


def _per_layer(phase: Phase, workload, tracer, import_ms: list[float]) -> dict[str, tuple]:
    ops = phase.ops[True]
    m: dict[str, tuple] = {}
    for name, value in tracing.layer_summary(tracer.spans, ops).items():
        if name.endswith(".errors"):
            m[name] = (value, "count", "lower", ops)
        elif name.endswith(".calls"):
            m[name] = (value, "calls/op", "lower", ops)
        else:
            m[name] = (value, "ms/op", "lower", ops)
    m["combinadic.binomial.calls"] = (tracer.binomial_calls / max(ops, 1), "calls/op", "lower", ops)
    m["combinadic.binomial.repeat_share"] = (
        tracer.binomial_repeats / max(tracer.binomial_calls, 1), "share", "lower", tracer.binomial_calls)
    m["planner.validate.repeat_share"] = (
        tracer.validate_repeats / max(tracer.validate_calls, 1), "share", "lower", tracer.validate_calls)
    tally = workload.tally
    m["device.save_state.bytes"] = (tally.save_bytes / max(tally.saves, 1), "B/call", "lower", tally.saves)
    m["device.wits_programmed"] = (tally.wits_programmed / max(phase.attempted, 1), "wits/op", "lower",
                                   phase.attempted)
    m["womcode.import_ms"] = (statistics.median(import_ms), "ms", "lower", len(import_ms))
    rates = {}
    for traced in (False, True):
        busy = phase.busy_ns[traced]
        rates[traced] = phase.ops[traced] / (busy / 1e9) if busy else 0.0
    m["trace.traced_ops_per_s"] = (rates[True], "1/s", "higher", phase.ops[True])
    m["trace.untraced_ops_per_s"] = (rates[False], "1/s", "higher", phase.ops[False])
    overhead = (rates[False] / rates[True] - 1) * 100 if rates[True] else 0.0
    m["trace.overhead_pct"] = (overhead, "%", "lower", phase.attempted)
    m["trace.unreconciled_ops"] = (tracing.unreconciled_ops(tracer.spans), "count", "lower", ops)
    return m


def _write_spans(name: str, spans) -> Path:
    path = WORK / f"spans-{name}.jsonl"
    with open(path, "w", encoding="ascii") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def _declared(trace: bool) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return _setup_only(args.workload, args.seed)

    womcode, _ = _import_womcode()
    import workloads
    from womcode import cli

    declared = _declared(bool(args.trace))
    setup_s, import_ms = _measure_setup(args.workload, args.seed)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        gc.collect()
        phase = _run_phase(cli, workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = _per_layer(phase, workload, tracer, import_ms)
        spans_path = _write_spans(args.workload, tracer.spans)
    else:
        metrics = _end_to_end(phase, workload, setup_s)
        spans_path = None

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git": _git_revision(),
        "nproc": os.cpu_count(), "kernel_backend": getattr(womcode, "KERNEL_BACKEND", None),
        "attempted": phase.attempted, "failed": phase.failed, "spans": str(spans_path) if spans_path else None,
    }
    print("meta " + json.dumps(meta))
    print(f"{'metric':44} {'value':>14}  {'unit':9} {'better':7} samples")
    for name, (value, unit, better, samples) in metrics.items():
        print(f"{name:44} {value:14.6g}  {unit:9} {better:7} {samples}")
    for problem in phase.problems[:20]:
        print(f"FAILED {problem}")

    correct = phase.failed == 0
    if tracer is not None and metrics["trace.unreconciled_ops"][0]:
        print("FAILED trace self times do not sum to the root cli.main span")
        correct = False
    result = {}
    for name, spec in declared.items():
        if name not in metrics:
            raise SystemExit(f"error: BENCHMARK.json names {name}, which this run does not measure")
        value, unit, _better, _samples = metrics[name]
        if unit != spec["unit"]:
            raise SystemExit(f"error: {name} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
