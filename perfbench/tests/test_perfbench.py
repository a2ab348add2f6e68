"""Self-tests of the benchmark: declared names, tiny workloads, exit codes.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS, CheckError  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(key: str) -> list[str]:
    return [m["name"] for m in DECLARED[key]]


def test_declared_metrics_match_the_code():
    assert DECLARED["end_to_end"] == [
        {"name": k, "unit": u, "better": b, "bound": bound}
        for k, (u, b, bound) in run.END_TO_END.items()]
    assert DECLARED["per_layer"] == [
        {"name": k, "unit": u, "better": b}
        for k, (u, b) in layers.PER_LAYER.items()]
    assert DECLARED["workloads"] == [
        {"name": cls.name, "why": cls.why} for cls in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    metrics, passes, _ = run.untraced(WORKLOADS[name](TINY), 3, 0.0)
    assert list(metrics) == _names("end_to_end")
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics
    assert sum(p.failed for p in passes) == 0

    layer_metrics, passes, _ = run.traced(WORKLOADS[name](TINY), 3, 0.0)
    assert list(layer_metrics) == _names("per_layer")
    assert all(math.isfinite(v) for v in layer_metrics.values())
    assert len(passes) == 2  # one untraced, one traced


def test_traced_pass_must_match_untraced(monkeypatch):
    from repro import obs

    original = workloads.DesReplay.run

    def drifting(self, inputs):
        result = original(self, inputs)
        if obs.enabled():
            result.outcome.append("traced")
        return result

    monkeypatch.setattr(workloads.DesReplay, "run", drifting)
    with pytest.raises(CheckError, match="traced pass"):
        run.traced(workloads.DesReplay(TINY), 3, 0.0)


def test_failed_check_exits_nonzero_without_result(monkeypatch, capsys):
    def reject(self, inputs, result):
        raise CheckError("rejected")

    monkeypatch.setattr(workloads, "BENCH", TINY)
    monkeypatch.setattr(workloads.DesReplay, "check", reject)
    code = run.main(["--workload", "des_replay", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr()
    assert code == 1
    assert "{" not in out.out
    assert "rejected" in out.err


def test_cli_prints_every_metric_as_json(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BENCH", TINY)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "des_replay", "--seed", "1",
                         "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
        assert doc["correct"] is True and doc["attempted"] >= 1
        assert list(doc["metrics"]) == _names(key)
        units = {m["name"]: m["unit"] for m in DECLARED[key]}
        assert all(v["unit"] == units[k] for k, v in doc["metrics"].items())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
