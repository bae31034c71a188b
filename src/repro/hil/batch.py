"""Batched closed-loop bench: B independent scenarios in lockstep.

One compiled CGRA program advances ``B`` independent closed-loop
scenarios simultaneously (:class:`repro.cgra.BatchedCgraExecutor` with
NumPy ``[B]`` array registers).  Every lane is a full Fig. 4 loop —
analytic DDS sensors, optional ADC quantisation, DSP phase detector and
the beam-phase control filter — but sensor reads, actuator writes and
the control update happen once per revolution for the whole batch, so
experiment sweeps (jump-amplitude scans, ablations, Monte-Carlo jitter
studies) pay one engine iteration per revolution instead of ``B``.

Per-lane semantics match :class:`repro.hil.simulator.CavityInTheLoop`'s
per-turn loop bit for bit: the batch register file applies the same
per-op float32/float64 rounding elementwise, and the analytic sensor
handlers' ``np.sin`` equals ``math.sin`` on every value the parity tests
draw (the native loop's ``sin`` is checked against ``np.sin`` when it
loads).  That equality is what lets the scalar bench run as a B = 1
lane of this one (see docs/PERFORMANCE.md).

The per-lane sweep variable is the phase-jump amplitude; ring, ion and
RF calibration are lane-uniform.

:meth:`BatchedCavityInTheLoop.run` executes the revolutions in the
native loop of :mod:`repro.hil.native` when it is available and on the
engine's Python callback loop otherwise; both produce the same bytes
(docs/PERFORMANCE.md, *Native revolution loop*).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cgra.engine import TAPE_OPS, BatchedCgraExecutor
from repro.cgra.fabric import CgraConfig
from repro.cgra.models import CompiledModel, compile_beam_model
from repro.cgra.ops import Op
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
    BatchSensorBus,
)
from repro.constants import TWO_PI
from repro.control import ControlLoopConfig
from repro.errors import ConfigurationError, HilError
from repro.faults.spec import FaultSpec
from repro.hil.realtime import DeadlineMonitor, JitterStats
from repro.obs import get_registry, get_tracer, record_hil_run
from repro.obs._state import STATE as _OBS
from repro.obs.profile import get_profiler
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem, voltage_for_synchrotron_frequency
from repro.physics.ring import SynchrotronRing
from repro.signal.adc import ADC
from repro.signal.awg import PhaseJumpPattern
from repro.signal.fir import PhaseControlFilter

__all__ = ["BatchHilConfig", "BatchHilRunResult", "BatchedCavityInTheLoop"]

_HIL_ITERATIONS = get_registry().counter(
    "hil_iterations_total", "HIL model iterations run"
)
_LANE_ITERATIONS = get_registry().counter(
    "hil_lane_iterations_total", "batched HIL lane-iterations run (iterations x lanes)"
)


@dataclass(frozen=True)
class BatchHilConfig:
    """Configuration of a batched cavity-in-the-loop run.

    ``jump_deg`` holds one phase-jump amplitude per lane; its length is
    the batch size B.
    """

    ring: SynchrotronRing
    ion: IonSpecies
    #: Per-lane phase-jump amplitudes in degrees; length = batch size.
    jump_deg: tuple[float, ...]
    harmonic: int = 4
    revolution_frequency: float = 800e3
    synchrotron_frequency: float = 1.28e3
    jump_toggle_period: float = 0.05
    jump_start_time: float = 0.005
    control: ControlLoopConfig | None = None
    n_bunches: int = 1
    precision: str = "single"
    pipelined: bool = True
    cgra_config: CgraConfig = field(default_factory=CgraConfig)
    quantize_adc: bool = True
    adc_amplitude: float = 0.9
    record_every: int = 1
    #: Per-lane initial arrival offset (seconds), applied to every bunch
    #: of that lane; None = all lanes start on their zero crossings.
    initial_delta_t: tuple[float, ...] | None = None
    control_source: str = "bunch0"
    #: Faults to arm; each spec's ``target`` selects the lane it acts
    #: on (see :mod:`repro.faults.inject`).  The empty default also
    #: consults the session faults armed by the runner's ``--faults``
    #: flag.
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if len(self.jump_deg) < 1:
            raise ConfigurationError("jump_deg needs at least one lane")
        if not all(math.isfinite(a) for a in self.jump_deg):
            raise ConfigurationError(f"jump_deg must be finite, got {self.jump_deg}")
        if self.precision not in ("single", "double"):
            raise ConfigurationError(
                f"precision must be 'single' or 'double', got {self.precision!r}"
            )
        if self.harmonic < 1:
            raise ConfigurationError("harmonic must be >= 1")
        if self.n_bunches < 1 or self.n_bunches > self.harmonic:
            raise ConfigurationError("n_bunches must be in [1, harmonic]")
        if self.revolution_frequency <= 0:
            raise ConfigurationError("revolution_frequency must be positive")
        if self.synchrotron_frequency <= 0:
            raise ConfigurationError("synchrotron_frequency must be positive")
        if not 0 < self.adc_amplitude <= 1.0:
            raise ConfigurationError("adc_amplitude must be in (0, 1] volts")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if self.jump_toggle_period <= 0:
            raise ConfigurationError("jump_toggle_period must be positive")
        if self.initial_delta_t is not None and len(self.initial_delta_t) != len(self.jump_deg):
            raise ConfigurationError(
                f"initial_delta_t needs {len(self.jump_deg)} entries, "
                f"got {len(self.initial_delta_t)}"
            )
        if self.initial_delta_t is not None and not all(
            math.isfinite(v) for v in self.initial_delta_t
        ):
            raise ConfigurationError(
                f"initial_delta_t must be finite, got {self.initial_delta_t}"
            )
        if self.control_source not in ("bunch0", "mean"):
            raise ConfigurationError(
                f"control_source must be 'bunch0' or 'mean', got {self.control_source!r}"
            )
        for s in self.faults:
            if not isinstance(s, FaultSpec):
                raise ConfigurationError(
                    f"faults must be FaultSpec instances, got {type(s).__name__}"
                )

    @property
    def batch(self) -> int:
        """Number of lanes."""
        return len(self.jump_deg)


@dataclass
class BatchHilRunResult:
    """Recorded traces of one batched run (decimated by ``record_every``).

    Per-record arrays carry one column per lane.
    """

    #: Machine time of each record, seconds — shape (n_records,).
    time: np.ndarray
    #: DSP phase difference per lane, degrees at h·f_R — (n_records, B).
    phase_deg: np.ndarray
    #: Control correction per lane, degrees — (n_records, B).
    correction_deg: np.ndarray
    #: Commanded jump drive per lane, degrees — (n_records, B).
    jump_deg: np.ndarray
    #: Arrival-time offset of bunch 0 per lane, seconds — (n_records, B).
    delta_t: np.ndarray
    #: All bunches — (n_records, B, n_bunches).
    delta_t_all: np.ndarray
    #: Reference Lorentz factor per lane — (n_records, B).
    gamma_ref: np.ndarray
    #: Real-time slack statistics of the run.
    deadline: JitterStats
    schedule_length: int
    batch: int


class _VectorControlLoop:
    """Array-valued mirror of :class:`repro.control.BeamPhaseControlLoop`.

    Runs B independent control filters in lockstep: identical recurrence,
    decimation, enable and saturation semantics, with ``saturation_count``
    totalled across lanes.
    """

    def __init__(self, config: ControlLoopConfig, batch: int) -> None:
        self.config = config
        # Reuse the scalar filter's normalisation math (r, g·C).
        template = PhaseControlFilter(
            f_pass=config.f_pass,
            gain=config.gain * config.gain_scale,
            recursion_factor=config.recursion_factor,
            sample_rate=config.sample_rate / config.update_divider,
        )
        self._r = template.recursion_factor
        self._gc = template.gain * template._c
        self._x_prev = np.zeros(batch)
        self._y_prev = np.zeros(batch)
        self._tick = 0
        self._last_output = np.zeros(batch)
        self.saturation_count = 0
        # Scratch buffers for the allocation-free update below.
        self._t1 = np.empty(batch)
        self._t2 = np.empty(batch)
        self._u = np.empty(batch)

    @property
    def last_output_deg(self) -> np.ndarray:
        """Most recent per-lane correction, degrees — shape (B,)."""
        return self._last_output

    def update(self, measured_phase_deg: np.ndarray) -> np.ndarray:
        """Feed one phase measurement per lane; returns the corrections."""
        if not self.config.enabled:
            self._last_output = np.zeros_like(self._last_output)
            return self._last_output
        run_now = (self._tick % self.config.update_divider) == 0
        self._tick += 1
        if not run_now:
            return self._last_output
        x = np.asarray(measured_phase_deg, dtype=float)
        # In-place form of u = r*y_prev + gc*(x - x_prev): each elementwise
        # op matches the allocating expression (scalar multiplies commute
        # bit-exactly), so results are identical with zero per-call arrays.
        t1, t2, u = self._t1, self._t2, self._u
        np.multiply(self._y_prev, self._r, out=t1)
        np.subtract(x, self._x_prev, out=t2)
        np.multiply(t2, self._gc, out=t2)
        np.add(t1, t2, out=u)
        np.copyto(self._x_prev, x)
        # y_prev feeds back the *unclipped* output, matching the scalar loop.
        np.copyto(self._y_prev, u)
        limit = self.config.saturation_deg
        if limit is not None:
            saturated = int(np.count_nonzero(np.abs(u) > limit))
            if saturated:
                self.saturation_count += saturated
                np.clip(u, -limit, limit, out=u)
        self._last_output = u
        return u

    def _adopt(self, tick: int, tick0: int, last: np.ndarray, saturations: int) -> None:
        """Take over the state the native loop committed from tick
        ``tick0`` to ``tick`` (it updates x_prev/y_prev in place)."""
        if not self.config.enabled:
            self._last_output = np.zeros_like(self._last_output)
            return
        div = self.config.update_divider
        if -(-tick // div) > -(-tick0 // div):  # an update ran
            np.copyto(self._u, last)
            self._last_output = self._u
        self._tick = tick
        self.saturation_count += saturations


class BatchedCavityInTheLoop:
    """The Fig. 4 closed loop, B lanes per revolution."""

    def __init__(self, config: BatchHilConfig) -> None:
        self.config = config
        self.batch = config.batch
        ring, ion = config.ring, config.ion
        self.f_rev = config.revolution_frequency
        self.gamma0 = ring.gamma_from_revolution_frequency(self.f_rev)
        probe = RFSystem(harmonic=config.harmonic, voltage=1.0)
        self.gap_voltage_amplitude = voltage_for_synchrotron_frequency(
            ring, ion, probe, self.gamma0, config.synchrotron_frequency
        )
        self.rf = probe.with_voltage(self.gap_voltage_amplitude)
        self._jump_unit = PhaseJumpPattern(
            jump_deg=1.0,
            toggle_period=config.jump_toggle_period,
            start_time=config.jump_start_time,
        )
        self._jump_amps = np.asarray(config.jump_deg, dtype=float)
        control_cfg = config.control or ControlLoopConfig(sample_rate=self.f_rev)
        if abs(control_cfg.sample_rate - self.f_rev) > 1e-6 * self.f_rev:
            raise ConfigurationError(
                "control sample_rate must equal the revolution frequency "
                f"({self.f_rev}), got {control_cfg.sample_rate}"
            )
        self.control = _VectorControlLoop(control_cfg, self.batch)

        self.gap_scale = self.gap_voltage_amplitude / config.adc_amplitude
        self.ref_scale = config.harmonic * self.gap_voltage_amplitude / config.adc_amplitude
        self._adc = ADC(bits=14, vpp=2.0, sample_rate=250e6)

        # Fault injection (same contract as the scalar bench): per-lane
        # faults via each spec's target index, None when disarmed.
        faults = config.faults
        if not faults:
            from repro.faults.session import session_faults

            faults = session_faults()
        if faults:
            from repro.faults.inject import FaultProgram
            from repro.signal.dac import DAC

            self._faults = FaultProgram(
                faults,
                batch=self.batch,
                adc_bits=self._adc.bits,
                dac_full_scale=DAC(bits=16, vpp=2.0).full_scale,
            )
        else:
            self._faults = None

        self.model: CompiledModel = compile_beam_model(
            n_bunches=config.n_bunches,
            pipelined=config.pipelined,
            config=config.cgra_config,
        )
        self.deadline = DeadlineMonitor(
            self.model.schedule_length,
            cgra_clock_hz=config.cgra_config.clock_mhz * 1e6,
        )

        self._gap_phase_rad = np.zeros(self.batch)
        self._time = 0.0
        self._turn = 0
        self._delta_t = np.zeros((self.batch, config.n_bunches))
        self._executor = self._build_executor()
        if config.initial_delta_t is not None:
            initial = np.asarray(config.initial_delta_t, dtype=float)
            for i in range(config.n_bunches):
                self._executor.set_register(f"dt[{i}]", initial)
            self._delta_t[:] = initial[:, None]

    # -- engine plumbing -------------------------------------------------

    def _maybe_quantize(self, adc_volts: np.ndarray) -> np.ndarray:
        if not self.config.quantize_adc:
            return adc_volts
        return self._adc.quantize(adc_volts)

    def _ref_adc_voltage(self, addr_samples: np.ndarray) -> np.ndarray:
        """Reference-buffer read: undisturbed sine at f_R, ADC volts.

        Deliberately fault-free: the reference leg doubles as the
        synchronous-energy bookkeeping, so all signal-chain faults act
        on the gap leg (see :mod:`repro.faults.inject`).
        """
        t = addr_samples / 250e6
        v = self.config.adc_amplitude * np.sin(TWO_PI * self.f_rev * t)
        return self._maybe_quantize(v)

    def _gap_adc_voltage(self, addr_samples: np.ndarray) -> np.ndarray:
        """Gap-buffer read: harmonic signal with the commanded phase."""
        t = addr_samples / 250e6
        base = TWO_PI * self.config.harmonic * self.f_rev * t + self._gap_phase_rad
        f = self._faults
        if f is not None and f.active:
            # Per-lane fault channels; unfaulted lanes carry neutral
            # elements (+0.0, x1.0, clip at inf, mask 0), which are
            # bitwise no-ops, so co-resident lanes are undisturbed.
            v = self.config.adc_amplitude * np.sin(base + f.gap_phase)
            v = v * f.gap_gain
            np.clip(v, -f.gap_clip, f.gap_clip, out=v)
            if f.stuck_any:
                codes = self._adc.apply_stuck_mask(self._adc.convert(v), f.stuck_mask)
                return self._adc.codes_to_volts(codes)
            return self._maybe_quantize(v)
        v = self.config.adc_amplitude * np.sin(base)
        return self._maybe_quantize(v)

    def _build_executor(self) -> BatchedCgraExecutor:
        bus = BatchSensorBus(self.batch)
        t_rev = 1.0 / self.f_rev
        # Pre-broadcast the lane-uniform period once; the bus passes a
        # float64 [B] array straight through instead of re-broadcasting
        # the scalar on every revolution.
        t_rev_lanes = np.full(self.batch, t_rev)
        bus.register_reader(SENSOR_PERIOD, lambda: t_rev_lanes)
        bus.register_addr_reader(SENSOR_REF_BUFFER, self._ref_adc_voltage)
        bus.register_addr_reader(SENSOR_GAP_BUFFER, self._gap_adc_voltage)
        for i in range(self.config.n_bunches):
            def writer(value: np.ndarray, i: int = i) -> None:
                self._delta_t[:, i] = value
            bus.register_writer(ACTUATOR_DELTA_T + i, writer)
        params = self.model.default_params(
            gamma_r0=self.gamma0,
            q_over_mc2=self.config.ion.gamma_gain_per_volt(),
            orbit_length=self.config.ring.circumference,
            alpha_c=self.config.ring.alpha_c,
            v_scale=self.gap_scale,
            v_scale_ref=self.ref_scale,
            f_sample=250e6,
            harmonic=self.config.harmonic,
        )
        return BatchedCgraExecutor(
            self.model.schedule, bus, params, precision=self.config.precision
        )

    # -- the loop ---------------------------------------------------------

    def measured_phase_deg(self) -> np.ndarray:
        """DSP phase detector reading per lane (degrees at h·f_R)."""
        if self.config.control_source == "mean":
            dt = self._delta_t.mean(axis=1)
        else:
            dt = self._delta_t[:, 0]
        return -360.0 * self.config.harmonic * self.f_rev * dt

    def _run_driven(
        self, start: int, n_turns: int, t_rev: float, rec: _Record, checked: bool
    ) -> None:
        """Turns ``start..n_turns-1`` on the Python path: the engine's
        callback loop (:meth:`BatchedCgraExecutor.run_driven`).

        Per turn: deadline check, fault update, gap-phase update, one
        engine step, control update, time advance, optional record — one
        errstate/telemetry envelope for the whole call, per-turn arrays
        updated in place (each elementwise op matches the allocating
        expression bit for bit).  This is the oracle the native loop is
        tested against, and the fallback it hands over to.
        """
        amps = self._jump_amps
        gap = self._gap_phase_rad
        ctrl = self.control
        jump_unit = self._jump_unit
        deadline = self.deadline
        d2r = math.pi / 180.0
        m = -360.0 * self.config.harmonic * self.f_rev
        use_bunch0 = self.config.control_source == "bunch0"
        dt0 = self._delta_t[:, 0]
        mbuf = np.empty(self.batch)
        tmp = np.empty(self.batch)
        rec_every = self.config.record_every
        faults = self._faults

        def pre(i: int) -> None:
            if checked:
                deadline.check_revolution(t_rev)
            if faults is not None:
                faults.update(self._time)
            jr = jump_unit.phase_rad_at(self._time)
            np.multiply(amps, jr, out=gap)
            np.multiply(ctrl.last_output_deg, d2r, out=tmp)
            np.add(gap, tmp, out=gap)

        def post(i: int) -> None:
            if use_bunch0:
                np.multiply(dt0, m, out=mbuf)
                ctrl.update(mbuf)
            else:
                ctrl.update(self.measured_phase_deg())
            self._turn += 1
            self._time += t_rev
            if (start + i + 1) % rec_every == 0:
                rec.take(self)

        self._executor.run_driven(n_turns - start, pre=pre, post=post)

    def _native_ready(self, t_rev: float, regs: np.ndarray):
        """The kernel tape when the native loop can run this bench from
        its current state (register file ``regs``), else None (the run
        stays on the Python path)."""
        cfg = self.config
        tape = self._executor.program.tape
        if tape is None:
            return None
        rows, _latches = tape
        # The loop implements this bench's IO map only.
        for op, io in zip(rows[:, 0].tolist(), rows[:, 4].tolist()):
            if op == _READ and io != SENSOR_PERIOD:
                return None
            if op == _READ_ADDR and io not in (SENSOR_REF_BUFFER, SENSOR_GAP_BUFFER):
                return None
            if op == _WRITE and not ACTUATOR_DELTA_T <= io < ACTUATOR_DELTA_T + cfg.n_bunches:
                return None
        if t_rev * self.deadline.cgra_clock_hz - self.deadline.schedule_length_ticks < 0:
            return None  # the first deadline check raises: let Python do it
        # np.mean sums fewer than 8 values sequentially (pairwise beyond).
        if cfg.control_source == "mean" and cfg.n_bunches >= 8:
            return None
        ctrl = self.control
        state = (self._jump_amps, self._delta_t, ctrl._x_prev, ctrl._y_prev,
                 ctrl.last_output_deg, regs, self._time)
        if not all(np.isfinite(v).all() for v in state):
            return None
        return tape

    def _run_native(self, n_turns: int, t_rev: float, rec: _Record, checked: bool) -> int:
        """Run as many turns as possible in the native loop; returns how
        many it committed (0 when it is unavailable).  All bench, engine,
        bus, deadline and telemetry state is left exactly as the Python
        path leaves it after that many turns."""
        from repro.hil import native

        lib = native.library()
        if lib is None:
            return 0
        regs = self._executor.register_file()
        tape = self._native_ready(t_rev, regs)
        if tape is None:
            return 0
        import ctypes

        rows, latches = tape
        cfg, ctrl, ex = self.config, self.control, self._executor
        B, nb = self.batch, cfg.n_bunches
        ccfg = ctrl.config
        last = np.array(ctrl.last_output_deg, dtype=float)
        scratch = np.empty(4 * B + B * nb + len(latches) * B)

        def ptr(a: np.ndarray, ctype=ctypes.c_double):
            if not a.flags.c_contiguous or a.dtype != np.dtype(ctype):
                raise HilError(f"native loop buffer is not C-contiguous {np.dtype(ctype)}")
            # From the address, not data_as: data_as ties the array into
            # a reference cycle that only the cyclic collector frees.
            return ctypes.cast(a.ctypes.data, ctypes.POINTER(ctype))

        c = native.RevLoop(
            lanes=B, n_bunches=nb, n_rows=len(rows), n_latch=len(latches),
            single=int(ex.precision == "single"), gamma_slot=ex.phi_slot("gamma_r"),
            tape=ptr(rows, ctypes.c_int32), latch=ptr(latches, ctypes.c_int32),
            regs=ptr(regs),
            t_rev=t_rev, f_sample=250e6, w_ref=TWO_PI * self.f_rev,
            w_gap=TWO_PI * cfg.harmonic * self.f_rev, adc_amplitude=cfg.adc_amplitude,
            lsb=self._adc.lsb, quantize=int(cfg.quantize_adc),
            code_min=self._adc.code_min, code_max=self._adc.code_max,
            adc_bits=self._adc.bits,
            jump_start=self._jump_unit.start_time, jump_period=self._jump_unit.toggle_period,
            jump_deg=self._jump_unit.jump_deg, d2r=math.pi / 180.0,
            amps=ptr(self._jump_amps), gap=ptr(self._gap_phase_rad),
            ctrl_enabled=int(ccfg.enabled), ctrl_divider=ccfg.update_divider,
            ctrl_has_limit=int(ccfg.saturation_deg is not None),
            use_bunch0=int(cfg.control_source == "bunch0"), ctrl_tick=ctrl._tick,
            ctrl_limit=ccfg.saturation_deg or 0.0, ctrl_r=ctrl._r, ctrl_gc=ctrl._gc,
            phase_scale=-360.0 * cfg.harmonic * self.f_rev,
            x_prev=ptr(ctrl._x_prev), y_prev=ptr(ctrl._y_prev), last=ptr(last),
            delta_t=ptr(self._delta_t), time=self._time,
            rec_every=cfg.record_every, rec_idx=rec.idx,
            rec_time=ptr(rec.time), rec_phase=ptr(rec.phase), rec_corr=ptr(rec.corr),
            rec_jump=ptr(rec.jump), rec_dt=ptr(rec.dt), rec_dt_all=ptr(rec.dt_all),
            rec_gamma=ptr(rec.gamma), scratch=ptr(scratch),
        )
        faults = self._faults
        block = n_turns
        if faults is not None:
            # Fault channels stay computed by FaultProgram.update, one
            # block of turns at a time, into tables the loop reads.
            block = min(n_turns, FAULT_BLOCK_TURNS)
            tables = (np.zeros(block, np.uint8), np.zeros(block, np.uint8),
                      np.zeros((block, B)), np.ones((block, B)),
                      np.full((block, B), math.inf), np.zeros((block, B), np.int64))
            active, stuck, phase, gain, clip, mask = tables
            c.fault_active = ptr(active, ctypes.c_uint8)
            c.fault_stuck = ptr(stuck, ctypes.c_uint8)
            c.gap_phase, c.gap_gain, c.gap_clip = ptr(phase), ptr(gain), ptr(clip)
            c.stuck_mask = ptr(mask, ctypes.c_int64)
        tick0 = ctrl._tick
        done = 0
        t0 = time.perf_counter()
        while done < n_turns:
            n = min(block, n_turns - done)
            if faults is not None:
                _fill_fault_tables(faults, tables, n, c.time, t_rev)
            c.turn0 = done
            got = lib.revloop_run(ctypes.byref(c), n)
            done += got
            if got < n:
                break
        elapsed = time.perf_counter() - t0
        if done == 0:
            return 0

        # Hand the state back: the loop committed ``done`` whole turns.
        ex.load_register_file(regs, traced=done == n_turns)
        ex.count_native_iterations(done, elapsed)
        bus = ex.bus
        for op, io in zip(rows[:, 0].tolist(), rows[:, 4].tolist()):
            if io >= 0:
                counts = bus.write_counts if op == _WRITE else bus.read_counts
                counts[io] = counts.get(io, 0) + done
        if checked:
            self.deadline.check_revolutions(t_rev, done)
        ADC.count_conversions(c.adc_samples, c.adc_clips)
        ctrl._adopt(c.ctrl_tick, tick0, last, c.saturations)
        self._time = c.time
        self._turn += done
        rec.idx = c.rec_idx
        get_profiler().add("hil.native_loop", elapsed, done * B)
        return done

    def run(self, duration: float, *, _native: bool = True) -> BatchHilRunResult:
        """Run all lanes for ``duration`` seconds of machine time.

        Turns run in the native revolution loop (:mod:`repro.hil.native`)
        when it is available; a turn it cannot commit (a numeric fault)
        and every turn after it run on the Python path, which raises the
        error.  ``_native=False`` runs the whole run on the Python path —
        the bit-identical oracle the tests compare against.
        """
        if duration <= 0:
            raise HilError("duration must be positive")
        n_turns = int(round(duration * self.f_rev))
        B = self.batch
        span_attrs = dict(batch=B, duration_s=duration, n_turns=n_turns)
        if self._faults is not None:
            span_attrs["fault"] = self._faults.label
        with get_tracer().span("hil.run_batched", **span_attrs):
            with get_profiler().phase("hil.run_batched"):
                rec = self._run_turns(n_turns, _native)
        stats = self.deadline.stats(allow_empty=True)
        if _OBS.enabled:
            _HIL_ITERATIONS.inc(n_turns, engine="batched")
            _LANE_ITERATIONS.inc(n_turns * B)
            extras = {}
            if self._faults is not None:
                extras["fault"] = self._faults.label
            record_hil_run(
                name="batched_cavity_in_the_loop",
                stats=stats,
                schedule_length=self.model.schedule_length,
                engine="batched",
                duration_s=duration,
                f_rev_hz=self.f_rev,
                batch=B,
                control_saturations=self.control.saturation_count,
                **extras,
            )
        n = rec.idx
        return BatchHilRunResult(
            time=rec.time[:n],
            phase_deg=rec.phase[:n],
            correction_deg=rec.corr[:n],
            jump_deg=rec.jump[:n],
            delta_t=rec.dt[:n],
            delta_t_all=rec.dt_all[:n],
            gamma_ref=rec.gamma[:n],
            deadline=stats,
            schedule_length=self.model.schedule_length,
            batch=B,
        )

    def _run_turns(self, n_turns: int, native: bool, checked: bool = True) -> _Record:
        """Advance every lane by ``n_turns`` revolutions and return the
        strided record (the state before the first turn, then every
        ``record_every``-th turn) — the loop of :meth:`run` without its
        span and run telemetry, which the caller owns.

        ``native`` tries the native loop first; ``checked=False`` leaves
        the deadline monitor out (a bare revolution step).
        """
        cfg = self.config
        rec = _Record(n_turns // cfg.record_every + 1, self.batch, cfg.n_bunches)
        rec.take(self)
        t_rev = 1.0 / self.f_rev
        start = self._run_native(n_turns, t_rev, rec, checked) if native else 0
        if start < n_turns:
            self._run_driven(start, n_turns, t_rev, rec, checked)
        return rec

    def _seed_bunch_offsets(self, offsets) -> None:
        """Start bunch ``i`` of every lane at ``offsets[i]`` seconds
        (the scalar bench's per-bunch ``initial_delta_t``; the config's
        per-lane offsets apply one value to every bunch of a lane)."""
        offsets = np.asarray(offsets, dtype=float)
        for i, value in enumerate(offsets):
            self._executor.set_register(f"dt[{i}]", float(value))
        self._delta_t[:] = offsets


_READ, _READ_ADDR, _WRITE = (
    TAPE_OPS[op] for op in (Op.SENSOR_READ, Op.SENSOR_READ_ADDR, Op.ACTUATOR_WRITE)
)

#: Turns per fault-table block of the native loop (bounds its memory).
FAULT_BLOCK_TURNS = 1024


def _fill_fault_tables(faults, tables, n: int, t: float, t_rev: float) -> None:
    """Evaluate ``faults`` at the start times of the next ``n`` turns
    (``t`` advanced by ``t_rev`` exactly as the loop advances it)."""
    active, stuck, phase, gain, clip, mask = tables
    # t + n·t_rev bounds the block's last turn start by a whole period.
    if faults.idle_before(t + n * t_rev):
        active[:n] = 0
        return
    for k in range(n):
        faults.update(t)
        active[k] = faults.active
        if faults.active:
            stuck[k] = faults.stuck_any
            phase[k] = faults.gap_phase
            gain[k] = faults.gap_gain
            clip[k] = faults.gap_clip
            mask[k] = faults.stuck_mask
        t += t_rev


class _Record:
    """Strided record buffers of one run, filled by either loop."""

    def __init__(self, n_rec: int, batch: int, n_bunches: int) -> None:
        self.time = np.empty(n_rec)
        self.phase = np.empty((n_rec, batch))
        self.corr = np.empty((n_rec, batch))
        self.jump = np.empty((n_rec, batch))
        self.dt = np.empty((n_rec, batch))
        self.dt_all = np.empty((n_rec, batch, n_bunches))
        self.gamma = np.empty((n_rec, batch))
        self.idx = 0

    def take(self, bench: BatchedCavityInTheLoop) -> None:
        """Record the bench's current state (the Python path)."""
        i = self.idx
        self.time[i] = bench._time
        dt0 = bench._delta_t[:, 0]
        if bench.config.control_source == "bunch0":
            np.multiply(dt0, -360.0 * bench.config.harmonic * bench.f_rev, out=self.phase[i])
        else:
            self.phase[i] = bench.measured_phase_deg()
        self.corr[i] = bench.control.last_output_deg
        np.multiply(bench._jump_amps, bench._jump_unit.phase_deg_at(bench._time),
                    out=self.jump[i])
        self.dt[i] = dt0
        self.dt_all[i] = bench._delta_t
        self.gamma[i] = bench._executor.register_view("gamma_r")
        self.idx = i + 1
