"""Smoke test of the benchmark itself, at tiny size.

    python -m pytest benchmarks/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that verdict digests repeat, and that corrupted outputs fail the run.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.load_potseq()
import workloads  # noqa: E402


def _bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny", "--seconds", "0.2", "--seed", "3", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


def _units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_emitted_with_units(workload):
    proc, result = _bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert f"{workload}.{m['name']} = " in proc.stdout
        assert result["metrics"][m["name"]]["value"] > 0
    assert f"{workload}.failed_frac = 0.0 ratio" in proc.stdout


def test_per_layer_metrics_are_emitted_with_units():
    proc, result = _bench("--workload", "verify", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_digest_repeats_for_a_seed():
    digests = []
    for _ in range(2):
        proc, _ = _bench("--workload", "check-stream", "--trace", "0")
        digests.append([line for line in proc.stdout.splitlines() if "digest:" in line])
    assert digests[0] == digests[1] and digests[0]


def test_corrupted_oracle_verdict_fails_the_run(monkeypatch, capsys):
    import potseq.search as search

    real = search.oracle_decide_k6c4

    def corrupted(seq, bound=None):
        answer = real(seq, bound=bound)
        return not answer if seq.terms == (6,) * 7 else answer

    monkeypatch.setattr(search, "oracle_decide_k6c4", corrupted)
    code = run.main(["--workload", "verify", "--size", "tiny", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_corrupted_verdict_trips_the_check_gate(monkeypatch):
    import potseq.characterize as characterize

    real = characterize.decide_k6c4

    def corrupted(seq):
        v = real(seq)
        return dataclasses.replace(v, decision="no", reason="NOT_GRAPHIC") if v.is_yes else v

    monkeypatch.setattr(characterize, "decide_k6c4", corrupted)
    out = workloads.run_check(workloads.make_api(), 3, 0, workloads.TINY)
    assert out.failures and all("NOT_GRAPHIC but graphic=True" in f for f in out.failures)


def test_corrupted_certificate_trips_the_realize_gate(monkeypatch):
    import potseq.search as search
    from potseq import Graph

    real = search.realize_with_k5c4

    def corrupted(seq):
        cert = real(seq)
        adj = list(cert.graph.adj)
        adj[0] &= ~(1 << 1)
        adj[1] &= ~(1 << 0)
        return dataclasses.replace(cert, graph=Graph(cert.graph.n, tuple(adj)))

    monkeypatch.setattr(search, "realize_with_k5c4", corrupted)
    out = workloads.run_realize(workloads.make_api(), 3, 0, workloads.TINY)
    assert len(out.failures) >= out.batch
    assert any("degrees differ" in f for f in out.failures)
