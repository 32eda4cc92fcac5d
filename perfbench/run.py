#!/usr/bin/env python3
"""stabkit benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and reports the end-to-end
metrics; ``--trace 1`` runs the same rotation with per-layer spans and
reports the per-layer metrics.  Every metric is printed by name, with its
unit, on the lines before the last; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every workload to its smallest size and is meant for
the smoke test only.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: steadier timings, and no step runs more threads than the
# machine has CPUs.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_CHILDREN = 2
CLI_PROBES = 3
WORKLOAD_NAMES = ("cold-cli", "analyze-large", "validate-small")
# Times that read 0 on every run of a workload that never enters the layer
# (or never renders that report format), and import times that the planned
# import diet takes to 0: printed with the other per-layer metrics, left out
# of the final JSON line.
DETAIL_ONLY = ("openness.covering_ms", "sim.validate_ms", "report.text_ms", "report.json_ms",
               "cli.import.scipy_stats_ms", "cli.import.scipy_special_ms",
               "cli.import.scipy_optimize_ms")


def setup(workload: str, seed: int, smoke: bool):
    """Import stabkit, generate the workload's systems and parse them (timed)."""
    start = time.perf_counter()
    import stabkit
    import stabkit.report  # noqa: F401
    import stabkit.system

    from perfbench import workloads

    systems = workloads.WORKLOADS[workload].generate(seed, smoke)
    parsed = {g.name: stabkit.system.parse_system(g.text) for g in systems}
    return time.perf_counter() - start, systems, parsed


def child_setup_seconds(args, env) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return float(out.strip().splitlines()[-1])


def measure(rotation, run_op, seconds: float, whole: bool, before=None):
    """Closed loop: run operations back to back until the time is up.

    With ``whole``, the run ends only at the end of a rotation.
    """
    records = []
    start = time.perf_counter()
    while True:
        for op in rotation:
            if before is not None:
                before(len(records))
            records.append(run_op(op))
            if not whole and time.perf_counter() - start >= seconds:
                return records
        if time.perf_counter() - start >= seconds:
            return records


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, if it is >= p50."""
    count = len(values)
    k = count - 10
    if k < (count + 1) // 2 or k < 1:
        return None
    return sorted(values)[k - 1], 100.0 * k / count


def end_to_end(wl, records, setup_samples, rss_mb):
    """The ISSUE-named end-to-end metrics, with ``None`` where a workload has no samples."""
    out: dict[str, tuple] = {}
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.seconds)
    cli = by_kind.get("cli-analyze", []) + by_kind.get("cli-synthesize", [])
    series = {
        "cold_start_s": (cli, 1.0, "s"),
        "verdict_ms": (by_kind.get("verdict", []), 1e3, "ms"),
        "gain_ms": (by_kind.get("gain", []), 1e3, "ms"),
        "validate_s": (by_kind.get("validate", []), 1.0, "s"),
        "covering_s": (by_kind.get("covering", []), 1.0, "s"),
    }
    out["setup_s"] = (statistics.median(setup_samples), "s", len(setup_samples))
    for name, (values, scale, unit) in series.items():
        count = len(values)
        out[f"{name}.p50"] = (scale * statistics.median(values) if values else None, unit, count)
        t = tail(values)
        out[f"{name}.tail"] = ((scale * t[0], unit, count, t[1]) if t else (None, unit, count))
    busy = sum(r.seconds for r in records)
    out["ops_per_s"] = (len(records) / busy, "1/s", len(records))
    out["fail_ratio"] = (sum(r.failed for r in records) / len(records), "ratio", len(records))
    out["peak_rss_mb"] = (rss_mb, "MB", 1)
    heavy = [r.seconds for r in records if r.op.kind == wl.heavy]
    light = [r.seconds for r in records if r.op.kind == wl.light]
    out["heavy_op_ms.p50"] = (1e3 * statistics.median(heavy), "ms", len(heavy))
    out["light_op_ms.p50"] = (1e3 * statistics.median(light), "ms", len(light))
    return out


def cli_probes(env) -> dict[str, tuple]:
    """Interpreter floor, stabkit.cli import time and the heaviest imports, fresh processes."""
    def wall(argv) -> float:
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120, check=True)
        return time.perf_counter() - start

    floor = statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    timer = ("import time; t = time.perf_counter(); import stabkit.cli; "
             "print(time.perf_counter() - t)")
    imports = statistics.median(
        float(subprocess.run([sys.executable, "-c", timer], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=120, check=True).stdout)
        for _ in range(CLI_PROBES))
    log = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stabkit.cli"],
                         cwd=ROOT, env=env, text=True, capture_output=True, timeout=120,
                         check=True).stderr
    cumulative: dict[str, int] = {}
    stabkit_self_us = 0
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            module = parts[2].strip()
            cumulative.setdefault(module, int(parts[1]))
            if module == "stabkit" or module.startswith("stabkit."):
                stabkit_self_us += int(parts[0].rsplit(":", 1)[1])
    return {
        "cli.interp_floor_s": (floor, "s"),
        "cli.import_s": (imports, "s"),
        "cli.import.scipy_stats_ms": (cumulative.get("scipy.stats", 0) / 1e3, "ms"),
        "cli.import.scipy_special_ms": (cumulative.get("scipy.special", 0) / 1e3, "ms"),
        "cli.import.scipy_optimize_ms": (cumulative.get("scipy.optimize", 0) / 1e3, "ms"),
        "cli.import.stabkit_ms": (stabkit_self_us / 1e3, "ms"),
    }


def environment() -> str:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas} blas_threads=1")


def traced_pass(wl, rotation, runner, args, whole):
    """Run the rotation with spans; return records, merged spans and the overhead ratio."""
    from perfbench import tracing

    if wl.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = measure(rotation, runner.run, args.seconds, whole,
                              before=lambda i: setattr(tracer, "op", i))
        finally:
            tracer.uninstall()
        dump = tracing.merge([tracer.dump()])
    else:
        runner.traced = True
        records = measure(rotation, runner.run, args.seconds, whole)
        runner.traced = False
        dump = tracing.merge([json.loads(p.read_text()) for p in runner.dumps])

    # Tracing overhead: the median traced operation of each kind is run once
    # more without wrappers, and the two times are compared.
    traced_s = untraced_s = 0.0
    for kind in dict.fromkeys(r.op.kind for r in records):
        ranked = sorted((r for r in records if r.op.kind == kind), key=lambda r: r.seconds)
        middle = ranked[(len(ranked) - 1) // 2]
        traced_s += middle.seconds
        untraced_s += runner.run(middle.op).seconds
    return records, dump, traced_s / untraced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of every workload (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: children are killed and scratch files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "stabkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: stabkit sources not found under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.setup_probe:
        print(setup(args.workload, args.seed, args.smoke)[0])
        return 0

    own_setup, systems, parsed = setup(args.workload, args.seed, args.smoke)
    import stabkit

    if not Path(stabkit.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"error: imported stabkit from {stabkit.__file__}, not {SRC}\n")
        return 2
    from perfbench import tracing, workloads

    env = workloads.child_env(ROOT)
    setup_samples = [own_setup] + [child_setup_seconds(args, env) for _ in range(SETUP_CHILDREN)]
    wl = workloads.WORKLOADS[args.workload]
    rotation = wl.rotation(systems, args.smoke)
    whole = wl.whole_rotations or args.smoke

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        if wl.in_process:
            runner = workloads.InProcess(args.smoke)
            runner.parsed = parsed
        else:
            runner = workloads.ColdCli(ROOT, workdir, systems)
        if args.trace:
            records, dump, overhead = traced_pass(wl, rotation, runner, args, whole)
        else:
            records = measure(rotation, runner.run, args.seconds, whole)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    if wl.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = max(r.rss_kb for r in records) / 1024.0
    e2e = end_to_end(wl, records, setup_samples, rss_mb)

    for r in records:
        if r.failed:
            note = " [known defect]" if r.known else " [UNEXPECTED]"
            print(f"fail {r.op.label}: {'; '.join(r.problems)}{note}")
    for key, (pattern, text) in workloads.KNOWN_DEFECTS.items():
        if any(r.known and r.op.known == pattern for r in records):
            print(f"known defect {key}: {text}")
    print(f"env {environment()}")
    print(f"workload {wl.name} seed={args.seed} trace={args.trace} ops={len(records)} "
          f"heavy_op={wl.heavy} light_op={wl.light}")
    for name, (value, unit, count, *pct) in e2e.items():
        if value is None:
            print(f"metric {name} = n/a {unit} (n={count})")
        else:
            where = f", p{pct[0]:.0f}" if pct else ""
            print(f"metric {name} = {value!r} {unit} (n={count}{where})")

    if args.trace:
        validations = [r for r in records if r.op.kind == "validate"]
        states = (statistics.fmean(runner.states_bytes(r.op.system) for r in validations)
                  if validations else 0.0)
        layers = tracing.layer_metrics(dump, len(records), states)
        layers["sim.validation_failures"] = (
            sum(any(p.startswith("validation failed") for p in r.problems) for r in validations),
            "count")
        layers.update(cli_probes(env))
        layers["trace.ops_per_s"] = (e2e["ops_per_s"][0], "1/s")
        layers["trace.overhead"] = (overhead, "x")
        for name, (value, unit) in layers.items():
            print(f"layer {name} = {value!r} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()
                   if k not in DETAIL_ONLY}
    else:
        contract = ("setup_s", "heavy_op_ms.p50", "light_op_ms.p50", "ops_per_s", "peak_rss_mb")
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in contract}

    result = {
        "correct": all(r.known or not r.failed for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
