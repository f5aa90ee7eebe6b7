"""Tests of the benchmark itself: python3 -m pytest bench -q

Tiny runs (--tiny: a few cheap slots per workload) must complete and pass
their checks, injected wrong answers must be counted as failures, and the
counters of a traced run must repeat exactly for the same seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH, ROOT, TINY_SLOTS, WORKLOADS
from run import END_TO_END, tail


def run_bench(*args, cwd=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", sorted(TINY_SLOTS))
def test_tiny_run_completes(workload):
    code, result, log = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                                  "--tiny")
    assert code == 0, log
    assert result["correct"] is True, log
    assert result["failed"] == 0
    assert result["attempted"] == len(TINY_SLOTS[workload])
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,fault", [
    ("invert", "flip-verdict"),
    ("strata", "drop-member"),
    ("cli", "corrupt-payload"),
])
def test_injected_wrong_answer_is_a_failure(workload, fault):
    code, result, log = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                                  "--tiny", "--inject", fault)
    assert code == 0, log
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_cli_contract_failures_are_named():
    code, _, log = run_bench("--workload", "cli", "--seed", "3", "--seconds", "0", "--tiny")
    assert code == 0, log
    report = json.loads((BENCH / "out" / "cli-seed3-trace0.json").read_text())
    cases = report["input_properties"]["contract_failure_cases"]
    assert cases == ["missing-f_prime", "ragged-f_dprime"]
    assert report["summary"]["metrics"]["fail_ratio"] == 2 / len(TINY_SLOTS["cli"])


@pytest.mark.parametrize("workload", sorted(TINY_SLOTS))
def test_traced_counters_repeat(workload):
    counts = []
    for _ in range(2):
        code, result, log = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                                      "--tiny", "--trace", "1")
        assert code == 0 and result["correct"], log
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, result, _ = run_bench("--workload", "invert", "--seed", "1", "--seconds", "1",
                                cwd=tmp_path)
    assert code != 0
    assert result is None


def test_slot_counts_match_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import wl_cli
    import wl_invert
    import wl_span
    import wl_strata

    sizes = {"strata": len(wl_strata.POOL), "invert": len(wl_invert.SLOTS),
             "span": len(wl_span.TEMPLATES) * wl_span.VARIANTS, "cli": len(wl_cli.SLOTS)}
    assert sizes == {name: meta["slots"] for name, meta in WORKLOADS.items()}


def test_tail_has_ten_samples_beyond():
    values = list(range(40))
    value, pct = tail(values)
    assert value == 29 and pct == 75.0
    assert sum(v > value for v in values) == 10
