"""Measurements outside the three workload loops: set-up time (every run)
and the per-layer probes of the traced run."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import REF_NOMINAL_S, reference_job

# a fresh interpreter importing potseq and finishing its lazy init (the
# exception table load); exits 9 if potseq came from anywhere but argv[1]
SETUP_CODE = (
    "import sys, potseq; potseq.k6c4_exceptions(); "
    "sys.exit(0 if potseq.__file__.startswith(sys.argv[1]) else 9)"
)
IMPORT_CODE = "import time; t = time.perf_counter(); import potseq.cli; print(time.perf_counter() - t)"
COLD_CHECK = ("-m", "potseq.cli", "check", "5^2,4^5")
SETUP_REF_REPS = 11


def _python(root: Path, args, tracer: Tracer | None = None, name: str = "") -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("POTSEQ_ORACLE_BOUND", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # starts after the first reuse its bytecode
    span = tracer.begin(name) if tracer is not None else -1
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, timeout=60
        )
    finally:
        if tracer is not None:
            tracer.finish(span)
    return time.perf_counter() - t, proc


def setup_times(root: Path, reps: int) -> list[tuple[float, float]]:
    """(wall seconds, host factor) of ``reps`` fresh interpreters running
    SETUP_CODE, after one unmeasured start that fills the bytecode cache.
    The host factor is REF_NOMINAL_S over the median time of the reference
    job run SETUP_REF_REPS times just before and just after the child.  The
    process is pinned to one CPU meanwhile, so that the child runs on the
    CPU whose speed the reference job measured."""
    src = str((root / "src").resolve())
    samples = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for i in range(reps + 1):
            ref = _reference_times(SETUP_REF_REPS)
            seconds, proc = _python(root, ["-c", SETUP_CODE, src])
            ref += _reference_times(SETUP_REF_REPS)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if i:
                samples.append((seconds, REF_NOMINAL_S / statistics.median(ref)))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def _reference_times(reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        reference_job()
        times.append(time.perf_counter() - t)
    return times


def cli_probe(root: Path, reps: int, tracer: Tracer, failures: list[str]) -> dict[str, float]:
    """Median in-process import time of potseq.cli and median wall time of
    a cold ``python -m potseq.cli check`` subprocess, in ms."""
    imports, checks = [], []
    for _ in range(reps):
        _, proc = _python(root, ["-c", IMPORT_CODE], tracer, "cli.import")
        if proc.returncode != 0:
            failures.append(f"cli import: exit {proc.returncode}")
            continue
        imports.append(float(proc.stdout) * 1e3)
        seconds, proc = _python(root, COLD_CHECK, tracer, "cli.check_cold")
        if proc.returncode != 0 or "verdict: yes (OK)" not in proc.stdout:
            failures.append(f"cli check: exit {proc.returncode}, stdout {proc.stdout!r}")
            continue
        checks.append(seconds * 1e3)
    return {
        "cli.import_ms": statistics.median(imports) if imports else 0.0,
        "cli.check_cold_ms": statistics.median(checks) if checks else 0.0,
    }


def enumerate_rates(api, ns, reps: int) -> dict[int, float]:
    """Median sequences per second of a full enumeration at each n."""
    rates = {}
    for n in ns:
        samples = []
        for _ in range(reps):
            t = time.perf_counter()
            count = len(api.enumerate_graphic_sequences(n))
            samples.append(count / (time.perf_counter() - t))
        rates[n] = statistics.median(samples)
    return rates


def jobs_ratio(api, n: int, reps: int, failures: list[str]) -> float:
    """Median wall time of K6-C4 verify_range(n) with 2 processes over the
    median with 1, alternating which runs first."""
    walls: dict[int, list[float]] = {1: [], 2: []}
    for rep in range(reps):
        for jobs in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t = time.perf_counter()
            report = api.verify_range(n, api.patterns["k6c4"], bound=n, jobs=jobs)
            walls[jobs].append(time.perf_counter() - t)
            if report.mismatches:
                failures.append(f"verify_range jobs={jobs} n={n}: {len(report.mismatches)} mismatches")
    return statistics.median(walls[2]) / statistics.median(walls[1])


def graphs_probe(api, sweeps) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Per-call seconds of the containment finders on ``realize_graphic``
    outputs of every verify sequence (mostly graphs without the target,
    like the oracle's partial graphs), with the hit count of each."""
    out: dict[str, list[float]] = {}
    hits: dict[str, int] = {}
    for n, key in sweeps:
        graphs = [api.realize_graphic(s) for s in api.enumerate_graphic_sequences(n)]
        m = 6 if key == "k6c4" else 5
        probes = [(f"find_km_minus_c4.m{m}", lambda g, m=m: api.find_km_minus_c4(g, m) is not None)]
        if key == "k5c4":
            pattern = api.patterns[key]
            probes.append(("contains_pattern.m5", lambda g: api.contains_pattern(g, pattern)))
        for name, call in probes:
            times = out.setdefault(name, [])
            for g in graphs:
                t = time.perf_counter()
                found = call(g)
                times.append(time.perf_counter() - t)
                hits[name] = hits.get(name, 0) + found
    return out, hits


def src_loc(root: Path) -> dict[str, int]:
    """Line counts of the package modules."""
    pkg = root / "src" / "potseq"
    return {p.stem: len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py"))}
