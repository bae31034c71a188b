"""Tests of the benchmark itself (not of ``repro``).

    python3 -m pytest perfbench/tests -q

The smoke runs start real benchmark processes at ``--size smoke``; the
whole file takes about a minute on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- names and units --------------------------------------------------------


def test_metric_names_are_valid_and_have_units():
    for name, unit in run.END_TO_END.items():
        assert NAME.match(name), name
        assert unit
    for name, (unit, better) in layers.PER_LAYER.items():
        assert NAME.match(name), name
        assert unit and better in ("higher", "lower")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert spec["paths"] == ["perfbench"]


# -- inputs are a pure function of the seed ----------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    cls = WORKLOADS[name]
    assert cls(7).inputs == cls(7).inputs
    assert cls(7).inputs != cls(8).inputs
    assert cls(7, "smoke").inputs == cls(7, "smoke").inputs


def test_inputs_are_made_without_the_program():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from workloads import WORKLOADS\n"
        "for cls in WORKLOADS.values(): cls(3)\n"
        "assert not any(m == 'repro' or m.startswith('repro.') for m in sys.modules)\n"
    ) % str(BENCH)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# -- wrapper hygiene ---------------------------------------------------------


def _import_targets():
    for target in layers.targets():
        __import__(target.module)


def test_install_restores_every_original():
    _import_targets()
    before = {t.where: ledger.resolve(t)[1] for t in layers.targets()}
    inst = ledger.install(layers.targets())
    try:
        for t in layers.targets():
            holder = sys.modules[t.module]
            if t.owner:
                holder = getattr(holder, t.owner)
            assert getattr(holder, t.attr).__perfbench__ == t.key
    finally:
        inst.restore()
    after = {t.where: ledger.resolve(t)[1] for t in layers.targets()}
    assert after == before


def test_missing_entry_point_is_an_error_and_patches_nothing():
    _import_targets()
    good = layers.targets()
    renamed = ledger.Target("control.update", "repro.hil.batch", "update_renamed",
                            owner="_VectorControlLoop")
    with pytest.raises(ledger.WrapperError, match="missing or renamed"):
        ledger.install(good + [renamed])
    assert all(ledger.resolve(t) for t in good)  # nothing left wrapped


def test_missing_private_class_is_an_error(monkeypatch):
    _import_targets()
    import repro.hil.batch

    monkeypatch.delattr(repro.hil.batch, "_VectorControlLoop")
    with pytest.raises(ledger.WrapperError, match="_VectorControlLoop is missing"):
        ledger.install(layers.targets())


def test_self_time_excludes_children():
    led = ledger.Ledger()
    ledger._ACTIVE.append(led)
    try:
        inner = ledger.folded("signal.adc", lambda: sum(range(20000)))
        outer = ledger.span("hil.run", lambda: [inner() for _ in range(3)])
        outer()
    finally:
        ledger._ACTIVE.clear()
    assert led.calls["signal.adc"] == 3
    assert led.self_ns["hil.run"] + led.self_ns["signal.adc"] == led.total_ns["hil.run"]
    assert led.spans[0][3] == "hil.run"


# -- end-to-end runs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for name_, metric in result["metrics"].items():
        assert metric["value"] > 0, name_
        assert re.search(rf"^{re.escape(name_)}\s", proc.stdout, re.M), name_


def test_traced_run_is_byte_identical_and_reports_every_layer():
    proc = bench("--workload", "fig5a-scalar", "--seed", "3", "--seconds", "2", "--trace", "1",
                 "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True  # includes the traced == untraced digest check
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: u for k, (u, _) in layers.PER_LAYER.items()
    }
    assert metrics["hil.lane_turns"]["value"] > 0
    assert metrics["cgra.kernel_steps"]["value"] == 0  # the scalar bench runs no CGRA kernel
    assert metrics["faults.updates"]["value"] == 0
    assert metrics["trace.coverage_pct"]["value"] > 90


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_round_that_differs_from_the_first_fails_the_run():
    res = {"round_s": [1.0, 1.0, 1.0], "units": 4, "failed_units": 0, "problems": [],
           "digests": ["a", "a", "b"]}
    correct, attempted, failed, problems = run.outcome([res])
    assert (correct, attempted, failed) == (False, 12, 4)
    assert "non-deterministic" in problems[0]
    res["digests"] = ["a", "a", "a"]
    assert run.outcome([res])[:3] == (True, 12, 0)
