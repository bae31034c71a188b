"""Property-based parity of the lane-backed scalar bench with its
per-turn loop.

With the native loop available, :class:`CavityInTheLoop` runs as a B = 1
lane of :class:`BatchedCavityInTheLoop`; ``_native=False`` keeps the
per-turn loop (hand-written equations for ``engine="python"``, the
compiled CGRA executor for ``engine="cgra"``).  For any drawn
:class:`HilConfig` — both engines and precisions, pipelining, ADC
quantisation, 1–4 bunches, both control sources, per-bunch injection
offsets, record stride, divider/saturation/enable and 0–3 armed loop
faults — two ``run()`` calls with ``step_revolution()`` calls before,
between and after them must agree byte for byte: every result array
(dtype, shape, contiguity), the end state and the telemetry both
backends file.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.control import ControlLoopConfig
from repro.hil import CavityInTheLoop, HilConfig, native
from repro.physics import KNOWN_IONS, SIS18

from tests.properties.test_native_props import fault_specs

_ARRAYS = ("time", "phase_deg", "correction_deg", "jump_deg", "delta_t",
           "delta_t_all", "gamma_ref")
#: Telemetry both backends file (engine-internal counters differ: the
#: lane counts batched engine iterations, the python engine none).
_SERIES = ("signal_adc_samples_total", "signal_adc_clips_total", "hil_iterations_total",
           "hil_slack_ticks", "hil_deadline_misses_total", "control_updates_total",
           "control_saturation_total", "hil_lane_iterations_total")


@st.composite
def configs(draw) -> HilConfig:
    n_bunches = draw(st.integers(1, 4))
    pipelined = draw(st.booleans())
    # The unpipelined multi-bunch kernel misses the 800 kHz deadline.
    f_rev = 600e3 if not pipelined and n_bunches > 1 else draw(
        st.sampled_from([600e3, 800e3]))
    offsets = st.lists(st.floats(-2e-8, 2e-8), min_size=n_bunches, max_size=n_bunches)
    initial = draw(st.none() | offsets)
    return HilConfig(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        engine=draw(st.sampled_from(["python", "cgra"])),
        cgra_engine="compiled",
        precision=draw(st.sampled_from(["single", "double"])),
        pipelined=pipelined,
        revolution_frequency=f_rev,
        n_bunches=n_bunches,
        jump_deg=draw(st.floats(-15.0, 15.0)),
        jump_start_time=draw(st.floats(0.0, 0.002)),
        jump_toggle_period=draw(st.sampled_from([0.05, 0.0007])),
        record_every=draw(st.integers(1, 7)),
        control_source=draw(st.sampled_from(["bunch0", "mean"])),
        quantize_adc=draw(st.booleans()),
        initial_delta_t=None if initial is None else tuple(initial),
        control=ControlLoopConfig(
            sample_rate=f_rev,
            update_divider=draw(st.integers(1, 4)),
            saturation_deg=draw(st.none() | st.floats(0.01, 60.0)),
            enabled=draw(st.booleans()),
        ),
        faults=tuple(draw(st.lists(fault_specs(1), max_size=3))),
    )


def _series() -> dict:
    snap = obs.get_registry().snapshot()
    return {name: snap[name] for name in _SERIES if name in snap}


def _end_state(bench: CavityInTheLoop) -> dict:
    lane = bench._lane
    if lane is None:
        time, turn, gap = bench._time, bench._turn, bench._gap_phase_rad
        delta_t = bench._delta_t
    else:
        time, turn, gap = lane._time, lane._turn, float(lane._gap_phase_rad[0])
        delta_t = lane._delta_t[0]
    return dict(
        time=time, turn=turn, gap=np.float64(gap).tobytes(), delta_t=delta_t.tobytes(),
        measured=np.float64(bench.measured_phase_deg()).tobytes(),
        correction=np.float64(bench.control.last_output_deg).tobytes(),
        saturations=bench.control.saturation_count,
        slacks=bench.deadline.slacks().tobytes(),
    )


def _run(config: HilConfig, durations, steps, use_native: bool):
    bench = CavityInTheLoop(config, _native=use_native)
    assert (bench._lane is not None) == use_native
    obs.reset()  # count the runs only, not the (cached) kernel compile
    arrays = []
    for _ in range(steps[0]):
        bench.step_revolution()
    for duration, n_steps in zip(durations, steps[1:]):
        result = bench.run(duration)
        for name in _ARRAYS:
            a = getattr(result, name)
            arrays.append((name, a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()))
        arrays.append(("stats", result.deadline, result.schedule_length, result.engine))
        for _ in range(n_steps):
            bench.step_revolution()
    reports = [(r.name, r.engine, r.n_iterations, r.adc_clip_count,
                r.control_saturation_count, r.extras) for r in obs.run_reports()]
    return arrays, _end_state(bench), _series(), reports


def _signed_zero_jump(amp: float) -> HilConfig:
    """A drive toggling on and off within the run, amplitude ``amp``:
    the trace must keep the drive's signed zeros (``-0.0`` while a
    ``-0.0`` jump is on, ``+0.0`` at rest)."""
    return HilConfig(
        ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_deg=amp, jump_start_time=0.0005,
        jump_toggle_period=0.0007, record_every=1,
    )


@settings(max_examples=30, deadline=None)
@example(config=_signed_zero_jump(-0.0), durations=[0.002, 0.001], steps=[0, 1, 0])
@example(config=_signed_zero_jump(-3.0), durations=[0.002, 0.001], steps=[0, 1, 0])
@given(
    config=configs(),
    durations=st.lists(st.floats(2e-4, 0.003), min_size=2, max_size=2),
    steps=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_lane_matches_per_turn_loop(config, durations, steps):
    if native.library() is None:
        pytest.skip("no working C compiler for the native loop")
    obs.enable()
    try:
        lane = _run(config, durations, steps, use_native=True)
        per_turn = _run(config, durations, steps, use_native=False)
    finally:
        obs.disable()
        obs.reset()
    assert lane[0] == per_turn[0]
    for key, want in per_turn[1].items():
        assert lane[1][key] == want, key
    assert lane[2] == per_turn[2]
    assert lane[3] == per_turn[3]
