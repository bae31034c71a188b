"""Native revolution loop: hand-off to the Python path, fallback and the
build cache.

The native loop must never change a result: a numeric fault mid-run is
raised by the Python path with the oracle's text and iteration count,
a missing compiler leaves every output byte-identical, and the on-disk
build cache survives concurrent builders and truncated files.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cgra.engine import BatchedCgraExecutor
from repro.control import ControlLoopConfig
from repro.errors import ExecutionError
from repro.experiments.runner import main
from repro.hil import BatchedCavityInTheLoop, BatchHilConfig, native
from repro.physics import KNOWN_IONS, SIS18

SRC = Path(__file__).resolve().parents[2] / "src"

@pytest.fixture(autouse=True)
def _needs_native():
    if native.library() is None:
        pytest.skip("no working C compiler for the native loop")


@pytest.fixture()
def fresh_native(monkeypatch, tmp_path):
    """A process that has not loaded the library yet, with a cold cache."""
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "repro"


def _forced_bench(kind: str) -> BatchedCavityInTheLoop:
    """A bench whose kernel faults at the first turn after the phase
    jump (turn ~800): the ring-buffer address is pinned to 0, so only
    the jump moves the gap reading, and the parameters turn that first
    non-zero reading into a zero divisor or a float32 overflow."""
    cfg = BatchHilConfig(
        ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_deg=(8.0, 8.0),
        jump_start_time=0.001,
        control=ControlLoopConfig(sample_rate=800e3, enabled=False),
    )
    bench = BatchedCavityInTheLoop(cfg)
    ex = bench._executor
    ex.set_param("F_SAMPLE", 0.0)
    ex.set_param("QMC2", 1.0)
    if kind == "divide":
        # gamma_a = gamma_r + dgamma = -v_a + v_a = 0 exactly.
        q = bench._adc.quantize(np.array([0.9 * np.sin(8.0 * (np.pi / 180.0))]))[0]
        ex.set_param("V_SCALE", 1024.0)
        ex.set_register("gamma_r", -float(np.float32(q) * np.float32(1024.0)))
    else:
        ex.set_param("V_SCALE", 1e37)
    return bench


@pytest.mark.parametrize("kind, text", [
    ("divide", "division by zero in node"),
    ("overflow", "overflow encountered"),
])
def test_mid_run_fault_raises_the_oracle_error(kind, text, monkeypatch):
    handed_over = []
    original = BatchedCgraExecutor.run_driven

    def spy(self, n, pre=None, post=None):
        handed_over.append(n)
        return original(self, n, pre=pre, post=post)

    monkeypatch.setattr(BatchedCgraExecutor, "run_driven", spy)
    outcomes = []
    for use_native in (True, False):
        bench = _forced_bench(kind)
        with pytest.raises(ExecutionError) as info:
            bench.run(0.003, _native=use_native)
        assert text in str(info.value)
        ex = bench._executor
        outcomes.append((
            str(info.value), ex.iterations, bench._turn, bench._time,
            bench.deadline.slacks().tobytes(), ex.register_file().tobytes(),
            bench._delta_t.tobytes(), dict(ex.bus.read_counts),
        ))
    assert outcomes[0] == outcomes[1]
    n_turns = 2400
    faulted = outcomes[0][1]
    assert 0 < faulted < n_turns
    # Native committed every turn before the fault, then handed over.
    assert handed_over == [n_turns - faulted, n_turns]


def test_negative_slack_raises_like_the_oracle():
    from repro.errors import RealTimeViolation

    cfg = BatchHilConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_deg=(4.0,))
    outcomes = []
    for use_native in (True, False):
        bench = BatchedCavityInTheLoop(cfg)
        bench.deadline.schedule_length_ticks = 10**6
        with pytest.raises(RealTimeViolation) as info:
            bench.run(0.001, _native=use_native)
        outcomes.append((str(info.value), bench.deadline.n_checked, bench._turn))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1:] == (1, 0)


def _csvs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def test_without_a_compiler_csvs_are_byte_identical(monkeypatch, tmp_path, fresh_native):
    with_native = tmp_path / "native"
    for exp in ("sweep", "faults"):
        assert main([exp, "--quick", "--out", str(with_native)]) == 0
    assert native._LIB not in (None, False)
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
    without = tmp_path / "python"
    for exp in ("sweep", "faults"):
        assert main([exp, "--quick", "--out", str(without)]) == 0
    assert native._LIB is False
    assert not (tmp_path / "cold" / "repro").exists() or not any(
        (tmp_path / "cold" / "repro").glob("*.so")
    )
    got, want = _csvs(without), _csvs(with_native)
    assert got and got == want


def test_fig5a_without_a_compiler_is_byte_identical(monkeypatch, tmp_path, fresh_native):
    """The scalar bench runs as a native lane with a compiler and on its
    per-turn loop without one: the Fig. 5a CSV must not move."""
    from repro.experiments import mde
    from repro.hil import CavityInTheLoop

    assert CavityInTheLoop(mde.bench_config())._lane is not None
    assert main(["fig5a", "--quick", "--out", str(tmp_path / "native")]) == 0
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
    assert CavityInTheLoop(mde.bench_config())._lane is None
    assert main(["fig5a", "--quick", "--out", str(tmp_path / "python")]) == 0
    assert native._LIB is False
    got, want = _csvs(tmp_path / "python"), _csvs(tmp_path / "native")
    assert got and got == want


def test_sin_mismatch_disables_the_library(monkeypatch, fresh_native):
    monkeypatch.setattr(native, "_sin_matches", lambda lib: False)
    assert native.library() is None
    cfg = BatchHilConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_deg=(4.0, 8.0))
    a = BatchedCavityInTheLoop(cfg).run(0.002)
    b = BatchedCavityInTheLoop(cfg).run(0.002, _native=False)
    assert np.array_equal(a.phase_deg, b.phase_deg)


def _load_in_subprocess(cache_home: Path) -> subprocess.Popen:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PYTHONPATH=str(SRC))
    env.pop("CC", None)
    code = "from repro.hil import native; print(native.library() is not None)"
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


def test_concurrent_builds_leave_one_valid_library(tmp_path):
    procs = [_load_in_subprocess(tmp_path) for _ in range(2)]
    outputs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert outputs == ["True", "True"]
    files = sorted(p.name for p in (tmp_path / "repro").iterdir())
    assert len(files) == 1 and files[0].startswith("revloop-") and files[0].endswith(".so")


def test_truncated_cache_file_is_rebuilt(tmp_path, fresh_native):
    assert _load_in_subprocess(tmp_path / "cache").communicate(timeout=120)[0].strip() == "True"
    (lib_path,) = fresh_native.glob("revloop-*.so")
    size = lib_path.stat().st_size
    lib_path.write_bytes(lib_path.read_bytes()[: size // 3])
    assert native.library() is not None
    assert lib_path.stat().st_size == size
    assert [p.name for p in fresh_native.iterdir()] == [lib_path.name]
