"""Smoke check of the benchmark at tiny sizes (no timing assertions).

Run from the repository root:

    python -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_command_and_paths():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(m["bound"] <= setup[0]["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # every flaicf command and every correctness check counts as attempted
    assert result["attempted"] >= 60
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"{name} " in proc.stdout  # printed by name with its unit
    if trace:
        layers = sum(v["value"] for k, v in result["metrics"].items()
                     if k.startswith("layer.") and k.endswith(".self_s"))
        assert layers == pytest.approx(result["metrics"]["trace.wall_s"]["value"], rel=1e-6)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    """A scorer that disagrees with the instance forward pass is caught."""
    sys.path.insert(0, str(BENCH))
    import run

    sys.path.insert(0, str(ROOT / "src"))
    from flaicf import evaluation

    original = evaluation._score_chunk
    monkeypatch.setattr(evaluation, "_score_chunk",
                        lambda *args: original(*args) + 1e-3)
    code = run.main(["--workload", SPEC["workloads"][0]["name"], "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "scorer/instance parity" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
