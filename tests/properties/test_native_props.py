"""Property-based parity of the native revolution loop with its oracle.

For any drawn :class:`BatchHilConfig` — lanes, bunches, record stride,
control source and filter settings, ADC quantisation, precision,
injection offsets and armed loop faults of every kind — two consecutive
``run()`` calls on the native loop and on the Python ``run_driven``
oracle must agree byte for byte: every result array, and the end state
(registers, time, turn, control state, deadline record, bus counts and
the telemetry counters).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.control import ControlLoopConfig
from repro.faults.inject import LOOP_KINDS
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil import BatchedCavityInTheLoop, BatchHilConfig, native
from repro.physics import KNOWN_IONS, SIS18

_MAGNITUDES = {
    FaultKind.CAVITY_FAILURE: st.floats(0.0, 1.0),
    FaultKind.MICROPHONIC_DETUNING: st.floats(0.0, 500.0),
    FaultKind.AMPLIFIER_SATURATION: st.floats(0.0, 1.0),
    FaultKind.DETUNING_TRANSIENT: st.floats(-2000.0, 2000.0),
    FaultKind.ADC_STUCK_BIT: st.integers(0, 13).map(float),
    FaultKind.DAC_CLIPPING: st.floats(0.0, 1.0),
    FaultKind.DDS_PHASE_GLITCH: st.floats(-math.pi, math.pi),
}
assert set(_MAGNITUDES) == LOOP_KINDS


@st.composite
def fault_specs(draw, lanes: int):
    kind = draw(st.sampled_from(sorted(LOOP_KINDS, key=lambda k: k.value)))
    return FaultSpec(
        kind=kind,
        magnitude=draw(_MAGNITUDES[kind]),
        onset_time=draw(st.floats(0.0, 0.004)),
        duration=draw(st.none() | st.floats(1e-4, 0.002)),
        target=draw(st.integers(0, lanes - 1)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def configs(draw) -> BatchHilConfig:
    lanes = draw(st.integers(1, 9))
    lane_floats = st.lists(st.floats(-15.0, 15.0), min_size=lanes, max_size=lanes)
    offsets = st.lists(st.floats(-2e-8, 2e-8), min_size=lanes, max_size=lanes)
    saturation = st.none() | st.floats(0.01, 60.0)
    initial = draw(st.none() | offsets)
    return BatchHilConfig(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        jump_deg=tuple(draw(lane_floats)),
        jump_start_time=draw(st.floats(0.0, 0.002)),
        jump_toggle_period=draw(st.sampled_from([0.05, 0.0007])),
        n_bunches=draw(st.integers(1, 4)),
        record_every=draw(st.integers(1, 7)),
        control_source=draw(st.sampled_from(["bunch0", "mean"])),
        quantize_adc=draw(st.booleans()),
        precision=draw(st.sampled_from(["single", "double"])),
        initial_delta_t=None if initial is None else tuple(initial),
        control=ControlLoopConfig(
            sample_rate=800e3,
            update_divider=draw(st.integers(1, 4)),
            saturation_deg=draw(saturation),
            enabled=draw(st.booleans()),
        ),
        faults=tuple(draw(st.lists(fault_specs(lanes), max_size=3))),
    )


def _counters() -> dict:
    """Every counter and histogram series (gauges hold timings)."""
    snap = obs.get_registry().snapshot()
    return {name: body for name, body in snap.items() if body["kind"] != "gauge"}


def _run(config: BatchHilConfig, durations, use_native: bool):
    bench = BatchedCavityInTheLoop(config)
    obs.reset()  # count the runs only, not the (cached) kernel compile
    results = [bench.run(d, _native=use_native) for d in durations]
    ex, ctrl = bench._executor, bench.control
    arrays = [
        getattr(r, name).tobytes()
        for r in results
        for name in ("time", "phase_deg", "correction_deg", "jump_deg", "delta_t",
                     "delta_t_all", "gamma_ref")
    ]
    state = dict(
        registers=ex.register_file().tobytes(),
        iterations=ex.iterations,
        write_ticks=ex.actuator_write_ticks,
        time=bench._time,
        turn=bench._turn,
        delta_t=bench._delta_t.tobytes(),
        gap=bench._gap_phase_rad.tobytes(),
        x_prev=ctrl._x_prev.tobytes(),
        y_prev=ctrl._y_prev.tobytes(),
        last=np.asarray(ctrl.last_output_deg).tobytes(),
        tick=ctrl._tick,
        saturations=ctrl.saturation_count,
        slacks=bench.deadline.slacks().tobytes(),
        misses=[r.deadline for r in results],
        reads=ex.bus.read_counts,
        writes=ex.bus.write_counts,
        counters=_counters(),
    )
    return arrays, state


@settings(max_examples=30, deadline=None)
@given(config=configs(), durations=st.lists(st.floats(2e-4, 0.003), min_size=1, max_size=2))
def test_native_matches_oracle(config, durations):
    if native.library() is None:
        pytest.skip("no working C compiler for the native loop")
    obs.enable()
    try:
        native_arrays, native_state = _run(config, durations, use_native=True)
        oracle_arrays, oracle_state = _run(config, durations, use_native=False)
    finally:
        obs.disable()
        obs.reset()
    assert native_arrays == oracle_arrays
    for key, want in oracle_state.items():
        assert native_state[key] == want, key
