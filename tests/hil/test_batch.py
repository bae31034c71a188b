"""Batched HIL bench vs per-lane scalar runs.

The batched bench advances B full closed loops with one compiled
program.  Its contract: each lane evolves exactly as the scalar
``CavityInTheLoop`` per-turn loop run with that lane's jump amplitude
(same engine, same quantisation), bit for bit (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control import ControlLoopConfig
from repro.errors import ConfigurationError, HilError
from repro.hil import BatchHilConfig, BatchedCavityInTheLoop, CavityInTheLoop, HilConfig
from repro.physics import KNOWN_IONS, SIS18

ION = KNOWN_IONS["14N7+"]
AMPS = (4.0, 8.0, 12.0)


def _batch_config(**overrides):
    defaults = dict(
        ring=SIS18,
        ion=ION,
        jump_deg=AMPS,
        jump_start_time=0.002,
        record_every=4,
    )
    defaults.update(overrides)
    return BatchHilConfig(**defaults)


def _scalar_config(jump_deg, **overrides):
    defaults = dict(
        ring=SIS18,
        ion=ION,
        jump_deg=jump_deg,
        jump_start_time=0.002,
        record_every=4,
        engine="cgra",
        cgra_engine="compiled",
    )
    defaults.update(overrides)
    return HilConfig(**defaults)


class TestBatchedHil:
    def test_lanes_match_scalar_runs(self):
        duration = 0.02
        batched = BatchedCavityInTheLoop(_batch_config()).run(duration)
        assert batched.batch == len(AMPS)
        for lane, amp in enumerate(AMPS):
            scalar = CavityInTheLoop(_scalar_config(amp), _native=False).run(duration)
            assert np.array_equal(batched.time, scalar.time)
            for name in ("phase_deg", "correction_deg", "jump_deg",
                         "delta_t", "gamma_ref"):
                got = getattr(batched, name)[:, lane]
                want = getattr(scalar, name)
                assert np.array_equal(got, want), f"{name} lane {lane} diverged"
            assert np.array_equal(batched.delta_t_all[:, lane, :],
                                  scalar.delta_t_all)

    def test_native_loop_matches_oracle_loop(self):
        """run() drives the native revolution loop; ``_native=False``
        keeps the whole run on the engine's callback loop (run_driven),
        the executable reference.  Both must produce bit-identical
        records and end state."""
        cfg = _batch_config(n_bunches=2, record_every=3)
        native_bench = BatchedCavityInTheLoop(cfg)
        oracle_bench = BatchedCavityInTheLoop(cfg)
        native = native_bench.run(0.004)
        oracle = oracle_bench.run(0.004, _native=False)
        for name in ("time", "phase_deg", "correction_deg", "jump_deg",
                     "delta_t", "delta_t_all", "gamma_ref"):
            assert np.array_equal(getattr(native, name), getattr(oracle, name)), name
        assert native_bench._turn == oracle_bench._turn
        assert native_bench._time == oracle_bench._time
        assert (native_bench.control.saturation_count
                == oracle_bench.control.saturation_count)
        assert np.array_equal(native_bench._executor.register_file(),
                              oracle_bench._executor.register_file())

    def test_control_damps_every_lane(self):
        cfg = _batch_config(jump_deg=(6.0, 10.0), jump_start_time=0.001)
        res = BatchedCavityInTheLoop(cfg).run(0.04)
        # After the jump, the loop steers the measured phase toward the
        # commanded shift in every lane (settled |phase - jump| small
        # relative to the jump itself).
        tail = slice(-len(res.time) // 4, None)
        for lane in range(res.batch):
            err = np.abs(res.phase_deg[tail, lane] - res.jump_deg[tail, lane])
            assert err.mean() < 0.4 * cfg.jump_deg[lane]

    def test_initial_delta_t_per_lane(self):
        initial = (1e-8, -1e-8, 0.0)
        cfg = _batch_config(
            jump_deg=(0.0, 0.0, 0.0),  # no drive: only the injection error acts
            control=ControlLoopConfig(sample_rate=800e3, enabled=False),
            initial_delta_t=initial,
        )
        bench = BatchedCavityInTheLoop(cfg)
        assert np.allclose(
            bench._executor.register_of("dt[0]"),
            np.asarray(initial, dtype=np.float32).astype(float),
        )
        res = bench.run(0.01)
        # Undriven lane stays put; offset lanes oscillate.
        assert np.ptp(res.delta_t[:, 0]) > np.ptp(res.delta_t[:, 2])

    def test_multibunch_lockstep(self):
        cfg = _batch_config(jump_deg=(5.0, 9.0), n_bunches=2)
        res = BatchedCavityInTheLoop(cfg).run(0.005)
        assert res.delta_t_all.shape == (len(res.time), 2, 2)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            _batch_config(jump_deg=())
        with pytest.raises(ConfigurationError):
            _batch_config(initial_delta_t=(1e-8,))  # lane count mismatch
        with pytest.raises(ConfigurationError):
            _batch_config(control_source="median")
        with pytest.raises(ConfigurationError):
            _batch_config(record_every=0)
        with pytest.raises(ConfigurationError):
            BatchedCavityInTheLoop(
                _batch_config(control=ControlLoopConfig(sample_rate=1e6))
            )
        with pytest.raises(HilError):
            BatchedCavityInTheLoop(_batch_config()).run(0.0)

    @pytest.mark.parametrize("overrides, text", [
        (dict(jump_deg=(4.0, float("nan"))), "jump_deg must be finite"),
        (dict(jump_deg=(float("inf"),)), "jump_deg must be finite"),
        (dict(initial_delta_t=(0.0, float("nan"), 0.0)), "initial_delta_t must be finite"),
        (dict(precision="half"), "precision must be"),
    ])
    def test_bad_values_rejected_at_construction(self, overrides, text):
        with pytest.raises(ConfigurationError, match=text):
            _batch_config(**overrides)

    def test_batch_property(self):
        assert _batch_config().batch == len(AMPS)
