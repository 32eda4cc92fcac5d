"""The three workloads: what they generate, which operations they run, and how.

Load model: a closed loop with one client in one process.  Each operation
starts when the previous one has ended, which is how a desk user waits on
the tool.  An operation that raises, exits non-zero or fails an oracle
check is a failure; its time to failure still counts as a latency sample.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import gen, oracle

# CLI --validate defaults.
VALIDATE_ARGS = dict(delta=0.05, samples=100, horizon=20.0, dt=1e-3, steps=200)
COVERING_RADII = (0.1, 0.05, 0.025)
LARGE_DRAWS = 4
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Op:
    """One operation of a workload's rotation."""

    kind: str
    system: gen.GenSystem
    radius: float = 0.0
    # A failure whose problems all match this pattern is a defect that is
    # known today (see KNOWN_DEFECTS); it still counts in fail_ratio.
    known: str | None = None

    @property
    def label(self) -> str:
        suffix = f"@r={self.radius:g}" if self.kind == "covering" else ""
        return f"{self.kind}:{self.system.name}{suffix}"


@dataclass
class Record:
    op: Op
    seconds: float
    problems: list[str]
    rss_kb: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def known(self) -> bool:
        return self.failed and self.op.known is not None and all(
            re.match(self.op.known, p) for p in self.problems)


KNOWN_DEFECTS = {
    "placement": (r"(PlacementError|UncontrollableError)",
                  "synthesize fails on the n >= 30 Baseline systems: the Kalman-matrix "
                  "staircase picks the wrong controllable block (ROADMAP item 3)"),
    "translated": (r"validation failed",
                   "verify_local_stability fits ||x|| instead of ||x - x*||, so the "
                   "translated planar_cubic fails validation (ROADMAP item 4)"),
}


@dataclass
class Workload:
    name: str
    heavy: str
    light: str
    in_process: bool
    # Stop only at the end of a rotation, so every run sees the same mix of
    # operation kinds and sizes.
    whole_rotations: bool
    generate: Callable[[int, bool], list[gen.GenSystem]]
    rotation: Callable[[list[gen.GenSystem], bool], list[Op]] = field(repr=False)


# -- generation ----------------------------------------------------------------


def _rng(seed: int, salt: int):
    import numpy as np

    return np.random.default_rng([seed, salt])


def cold_cli_systems(seed: int, smoke: bool) -> list[gen.GenSystem]:
    rng = _rng(seed, 1)
    shapes = [(2, 1)] if smoke else [(2, 1), (2, 2), (3, 1), (3, 2)]
    return [gen.small_system(rng, f"cli_{mode[0]}{n}{m}", mode, n, m)
            for mode in (gen.CONTINUOUS, gen.DISCRETE) for n, m in shapes]


def large_systems(seed: int, smoke: bool) -> list[gen.GenSystem]:
    """LARGE_DRAWS draws per size and mode.

    The cost of one operation depends on the draw (how many eigenvalues are
    unstable, where synthesize gives up), so each run medians over several.
    """
    rng = _rng(seed, 2)
    sizes, draws = ((10,), 1) if smoke else ((10, 30, 50), LARGE_DRAWS)
    return [gen.large_system(rng, f"large_{mode[0]}{n}_{k}", mode, n)
            for k in range(draws) for n in sizes for mode in (gen.CONTINUOUS, gen.DISCRETE)]


def validate_systems(seed: int, smoke: bool) -> list[gen.GenSystem]:
    rng = _rng(seed, 3)
    shapes = [(3, 1)] if smoke else [(3, 1), (4, 1)]
    generated = [gen.small_system(rng, f"chain_{n}{m}", gen.CONTINUOUS, n, m, zero_x_eq=True)
                 for n, m in shapes]
    return gen.planar_systems() + generated


# -- rotations -----------------------------------------------------------------


def cold_cli_rotation(systems: list[gen.GenSystem], smoke: bool) -> list[Op]:
    """Alternate analyze and synthesize while cycling through the systems."""
    count = len(systems)
    kinds = ("cli-analyze", "cli-synthesize")
    return [Op(kinds[(i + i // count) % 2], systems[i % count]) for i in range(2 * count)]


def large_rotation(systems: list[gen.GenSystem], smoke: bool) -> list[Op]:
    known = KNOWN_DEFECTS["placement"][0]
    ops = []
    for g in systems:
        ops.append(Op("verdict", g))
        ops.append(Op("gain", g, known=known if g.n >= 30 else None))
    return ops


def validate_rotation(systems: list[gen.GenSystem], smoke: bool) -> list[Op]:
    """Validations, then covering sweeps on the members with n + m <= 3.

    The sweep ends by repeating its first call, so the oracle can check that
    the covering search is deterministic.
    """
    known = KNOWN_DEFECTS["translated"][0]
    ops = [Op("validate", g, known=known if g.name == "planar_translated" else None)
           for g in systems]
    sweep = [g for g in systems if g.n + g.m <= 3]
    radii = COVERING_RADII[:1] if smoke else COVERING_RADII
    covering = [Op("covering", g, radius=r) for g in sweep for r in radii]
    return ops + covering + covering[:1]


WORKLOADS = {
    "cold-cli": Workload("cold-cli", "cli-synthesize", "cli-analyze", False, False,
                         cold_cli_systems, cold_cli_rotation),
    "analyze-large": Workload("analyze-large", "gain", "verdict", True, True,
                              large_systems, large_rotation),
    "validate-small": Workload("validate-small", "validate", "covering", True, True,
                               validate_systems, validate_rotation),
}


# -- running operations ----------------------------------------------------------


class InProcess:
    """Runs in-process operations through module attributes, so tracing wrappers apply."""

    def __init__(self, smoke: bool):
        import stabkit.openness
        import stabkit.report
        import stabkit.sim
        import stabkit.synthesis
        import stabkit.system
        import stabkit.verdict

        self.sk = stabkit
        self.validate_args = dict(VALIDATE_ARGS, horizon=2.0) if smoke else VALIDATE_ARGS
        self.parsed: dict[str, object] = {}
        self.covering_seen: dict[tuple[str, float], float] = {}

    def states_bytes(self, g: gen.GenSystem) -> int:
        """Size of the (samples, steps + 1, n) float64 array one validation computes."""
        steps = max(1, int(round(self.validate_args["horizon"] / self.validate_args["dt"])))
        return self.validate_args["samples"] * (steps + 1) * g.n * 8

    def run(self, op: Op) -> Record:
        sk = self.sk
        g = op.system
        start = time.perf_counter()
        try:
            if op.kind == "covering":
                kappa = sk.openness.empirical_covering_modulus(
                    self.parsed[g.name], radius=op.radius, grid=sk.openness.CoveringGrid())
                elapsed = time.perf_counter() - start
                key = (g.name, op.radius)
                problems = oracle.covering(kappa, self.covering_seen.get(key))
                self.covering_seen.setdefault(key, kappa)
                return Record(op, elapsed, problems)
            system = sk.system.parse_system(g.text)
            analysis = sk.verdict.analyze(system)
            if op.kind == "verdict":
                out = sk.report.report_json(sk.report.build_report(analysis, seed=0))
                elapsed = time.perf_counter() - start
                return Record(op, elapsed, _checked(oracle.report, g, out, False, False))
            gain = sk.synthesis.synthesize(system, poles=None, seed=0, tol=None)
            if op.kind == "gain":
                out = sk.report.report_json(sk.report.build_report(analysis, gain=gain, seed=0))
                elapsed = time.perf_counter() - start
                return Record(op, elapsed, _checked(oracle.report, g, out, True, False))
            check = sk.sim.verify_local_stability(system, gain, **self.validate_args)
            sk.report.build_report(analysis, gain=gain, validation=check, seed=0)
            text = sk.report.report_text(analysis, gain=gain, validation=check)
            elapsed = time.perf_counter() - start
        except Exception as err:  # the program failed: count it and go on
            return Record(op, time.perf_counter() - start, [f"{type(err).__name__}: {err}"])
        lin = analysis.linearization
        return Record(op, elapsed, _checked(lambda: (
            oracle.linearization(g, lin.a, lin.b) + oracle.gain(g, gain.k)
            + oracle.validation(check.passed, check.min_alpha, len(check.failures))
            + oracle.text_report(text))))


def _checked(check, *args) -> list[str]:
    """Run an oracle check; a check that raises is itself a failed check."""
    try:
        return check(*args)
    except Exception as err:
        return [f"oracle raised {type(err).__name__}: {err}"]


class ColdCli:
    """Runs each operation as a fresh ``python -m stabkit.cli`` process."""

    def __init__(self, root: Path, workdir: Path, systems: list[gen.GenSystem]):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.paths = {}
        for g in systems:
            path = workdir / f"{g.name}.stab"
            path.write_text(g.text)
            self.paths[g.name] = path
        # Set for the traced pass: children then write their spans here.
        self.traced = False
        self.dumps: list[Path] = []

    def run(self, op: Op) -> Record:
        g = op.system
        command = "analyze" if op.kind == "cli-analyze" else "synthesize"
        argv = [command, str(self.paths[g.name]), "--json"]
        if self.traced:
            dump = self.workdir / f"spans-{len(self.dumps)}.json"
            self.dumps.append(dump)
            argv = [sys.executable, str(self.root / "perfbench" / "cli_traced.py"), str(dump)] + argv
        else:
            argv = [sys.executable, "-m", "stabkit.cli"] + argv
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            try:
                code, rss_kb = spawn_wait(argv, self.root, self.env, out, err)
            except TimeoutError as timeout:
                return Record(op, time.perf_counter() - start, [str(timeout)])
            elapsed = time.perf_counter() - start
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        problems = oracle.cli(code, stderr)
        if not problems:
            problems = _checked(oracle.report, g, stdout, command == "synthesize", False)
        return Record(op, elapsed, problems, rss_kb)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_wait(argv: list[str], cwd: Path, env: dict, stdout, stderr) -> tuple[int, int]:
    """Run a child to completion; return its exit code and its own peak RSS in KiB."""
    def expired(signum, frame):
        raise TimeoutError(f"{' '.join(argv[1:3])} did not finish in {CLI_TIMEOUT_S:g} s")

    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
    try:
        # Blocking wait4, so the parent takes no CPU from the child it times.
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
