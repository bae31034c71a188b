"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics computed from the resulting ledger.

Layers are named after ``repro`` modules.  The wrapped entry points, per
layer (a missing one makes :func:`ledger.install` raise, so a renamed
entry point can never read as a layer that did no work):

* ``hil`` — ``BatchedCavityInTheLoop.run``, ``CavityInTheLoop.run``, the
  scalar bench's per-turn ``step_revolution``, and the ``pre``/``post``
  callbacks passed to ``run_driven``;
* ``sense``/``signal`` — ``BatchSensorBus.read_addr`` and
  ``ADC.quantize``/``convert``/``quantize_scalar``;
* ``cgra`` — ``BatchedCgraExecutor.run_driven``, ``compile_beam_model``,
  ``compile_program``, ``verify_context_images``;
* ``control`` — ``BeamPhaseControlLoop.update`` and the batched loop's
  ``_VectorControlLoop.update`` (private to ``repro.hil.batch``);
* ``faults`` — ``FaultProgram.update``, ``run_fault_lanes``,
  ``classify_trace``, ``detect_context_corruption``, ``run_campaign``
  and the two campaign shard functions;
* ``parallel`` — ``WorkerPool.map_sharded``, ``run_sharded``;
* ``physics``/``baselines`` — ``MultiParticleTracker.step``,
  ``MachineExperimentEmulator.run``;
* ``experiments`` — ``fig5_metrics``, ``fig5_run_bench``,
  ``fig5_run_machine``, ``run_sweep_shard``.

The shard and run functions are *unit* spans: the spans and call counts
inside one share a unit id, and in a pool worker the ledger is spooled
back to the parent when one returns.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import fields, is_dataclass

import numpy as np

from ledger import TURN_BIN_NS, Ledger, Target

#: Layers whose self time counts towards ``trace.coverage_pct``.
LAYERS = (
    "hil", "sense", "signal", "cgra", "control", "faults",
    "parallel", "physics", "baselines", "experiments",
)

#: Metric name -> (unit, better).  Every traced run prints all of them.
PER_LAYER: dict[str, tuple[str, str]] = {
    "hil.run_s": ("s", "lower"),
    "hil.lane_turns": ("count", "lower"),
    "hil.ns_per_lane_turn": ("ns", "lower"),
    "hil.turn_p50_us": ("us", "lower"),
    "hil.turn_p99_us": ("us", "lower"),
    "hil.turn_samples": ("count", "higher"),
    "hil.callbacks_self_s": ("s", "lower"),
    "hil.deadline_misses": ("count", "lower"),
    "sense.read_s": ("s", "lower"),
    "sense.reads": ("count", "lower"),
    "signal.adc_s": ("s", "lower"),
    "signal.adc_calls": ("count", "lower"),
    "cgra.kernel_self_s": ("s", "lower"),
    "cgra.kernel_steps": ("count", "lower"),
    "cgra.sched_ticks": ("ticks", "lower"),
    "cgra.compile_s": ("s", "lower"),
    "cgra.compile_calls": ("count", "lower"),
    "cgra.compile_hit_pct": ("%", "higher"),
    "cgra.verify_s": ("s", "lower"),
    "cgra.verify_calls": ("count", "lower"),
    "control.update_s": ("s", "lower"),
    "control.updates": ("count", "lower"),
    "control.saturations": ("count", "lower"),
    "faults.update_s": ("s", "lower"),
    "faults.updates": ("count", "lower"),
    "faults.classify_s": ("s", "lower"),
    "faults.scenarios": ("count", "higher"),
    "faults.failed": ("count", "lower"),
    "faults.retried": ("count", "lower"),
    "parallel.shards": ("count", "higher"),
    "parallel.map_s": ("s", "lower"),
    "parallel.shard_busy_s": ("s", "lower"),
    "parallel.busy_pct": ("%", "higher"),
    "parallel.overhead_s": ("s", "lower"),
    "parallel.result_mb": ("MB", "lower"),
    "parallel.failed": ("count", "lower"),
    "parallel.pool_start_s": ("s", "lower"),
    "physics.track_s": ("s", "lower"),
    "physics.particle_turns": ("count", "lower"),
    "physics.ns_per_particle_turn": ("ns", "lower"),
    "baselines.host_self_s": ("s", "lower"),
    "experiments.metrics_s": ("s", "lower"),
    "experiments.metrics_calls": ("count", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
}


# -- on_exit hooks --------------------------------------------------------


def _hil_run(led: Ledger, args, result, dt) -> None:
    bench = args[0]
    lanes = getattr(result, "batch", 1)
    led.add("hil.lane_turns", result.deadline.n_iterations * lanes)
    led.add("hil.deadline_misses", result.deadline.misses)
    led.add("control.saturations", bench.control.saturation_count)
    led.peak("cgra.sched_ticks", result.schedule_length)


def _machine_run(led: Ledger, args, result, dt) -> None:
    led.add("control.saturations", args[0].control.saturation_count)


def _kernel_steps(led: Ledger, args, result, dt) -> None:
    led.add("cgra.kernel_steps", args[1])


def _particle_turns(led: Ledger, args, result, dt) -> None:
    led.add("physics.particle_turns", args[0].delta_t.size)


def _compiled(led: Ledger, args, result, dt) -> None:
    led.add("cgra.compile_misses" if led.first_sight(result) else "cgra.compile_hits", 1)


def _campaign(led: Ledger, args, result, dt) -> None:
    from repro.faults.report import Outcome

    led.add("faults.scenarios", len(result.reports))
    led.add("faults.failed", sum(r.outcome is Outcome.FAILED for r in result.reports))
    led.add("faults.retried", len(result.retried))


def array_bytes(value) -> int:
    """Bytes of every NumPy array reachable from a shard's return value."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if is_dataclass(value) and not isinstance(value, type):
        return sum(array_bytes(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value)
    if isinstance(value, dict):
        return sum(array_bytes(v) for v in value.values())
    return 0


def _mapped(led: Ledger, args, results, dt) -> None:
    led.merge_spool()
    pool = args[0]
    me = os.getpid()
    busy: Counter = Counter()
    for r in results:
        led.add("parallel.failed", r.failure is not None)
        if r.worker_pid == me:
            continue
        led.add("parallel.shards", 1)
        led.add("parallel.shard_busy_ns", r.elapsed_s * 1e9)
        led.add("parallel.result_bytes", array_bytes(r.value))
        busy[r.worker_pid] += r.elapsed_s * 1e9
    if busy:
        led.add("parallel.pooled_map_ns", dt)
        led.add("parallel.pooled_capacity_ns", dt * pool.jobs)
        led.add("parallel.overhead_ns", dt - max(busy.values()))


def targets() -> list[Target]:
    """Every wrapped entry point (modules must already be imported)."""
    hil, sim = "repro.hil.batch", "repro.hil.simulator"
    return [
        Target("hil.run", hil, "run", "span", "BatchedCavityInTheLoop", _hil_run),
        Target("hil.run", sim, "run", "span", "CavityInTheLoop", _hil_run),
        Target("hil.callbacks", sim, "step_revolution", "turn", "CavityInTheLoop"),
        Target("cgra.run_driven", "repro.cgra.engine", "run_driven", "driven",
               "BatchedCgraExecutor", _kernel_steps),
        Target("sense.read", "repro.cgra.sensor", "read_addr", owner="BatchSensorBus"),
        Target("signal.adc", "repro.signal.adc", "quantize", owner="ADC", outermost=True),
        Target("signal.adc", "repro.signal.adc", "convert", owner="ADC", outermost=True),
        Target("signal.adc", "repro.signal.adc", "quantize_scalar", owner="ADC",
               outermost=True),
        Target("cgra.compile", "repro.cgra.models", "compile_beam_model", "span",
               on_exit=_compiled),
        Target("cgra.compile", "repro.cgra.engine", "compile_program", "span",
               on_exit=_compiled),
        Target("cgra.verify", "repro.cgra.verify", "verify_context_images"),
        Target("control.update", "repro.control.beam_phase_loop", "update",
               owner="BeamPhaseControlLoop"),
        Target("control.update", hil, "update", owner="_VectorControlLoop"),
        Target("faults.update", "repro.faults.inject", "update", owner="FaultProgram"),
        Target("faults.lanes", "repro.faults.engine", "run_fault_lanes", "span"),
        Target("faults.detect", "repro.faults.engine", "detect_context_corruption", "span"),
        Target("faults.classify", "repro.faults.report", "classify_trace"),
        Target("faults.campaign", "repro.faults.campaign", "run_campaign", "span",
               on_exit=_campaign),
        Target("faults.shard", "repro.faults.campaign", "run_campaign_shard", "span",
               unit=True),
        Target("faults.shard", "repro.faults.campaign", "run_verifier_shard", "span",
               unit=True),
        Target("parallel.map", "repro.parallel.pool", "map_sharded", "span", "WorkerPool",
               _mapped),
        Target("parallel.run_sharded", "repro.parallel.pool", "run_sharded", "span"),
        Target("physics.step", "repro.physics.multiparticle", "step",
               owner="MultiParticleTracker", on_exit=_particle_turns),
        Target("baselines.run", "repro.baselines.offline_tracker", "run", "span",
               "MachineExperimentEmulator", _machine_run),
        Target("experiments.metrics", "repro.experiments.fig5", "fig5_metrics"),
        Target("experiments.bench_run", "repro.experiments.fig5", "fig5_run_bench", "span",
               unit=True),
        Target("experiments.machine_run", "repro.experiments.fig5", "fig5_run_machine",
               "span", unit=True),
        Target("experiments.sweep_shard", "repro.experiments.sweep", "run_sweep_shard",
               "span", unit=True),
    ]


# -- metrics ----------------------------------------------------------------


def _percentile_us(hist: Counter, q: float) -> float:
    total = sum(hist.values())
    if not total:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for b in sorted(hist):
        seen += hist[b]
        if seen > rank:
            return (b + 0.5) * TURN_BIN_NS / 1e3
    return (max(hist) + 0.5) * TURN_BIN_NS / 1e3


def layer_metrics(setup: dict, timed: Ledger, rounds: int, timed_ns: float) -> dict:
    """Per-layer metrics of a traced run.

    ``setup`` is the ledger snapshot taken when set-up ended and
    ``timed`` the ledger of the timed rounds.  Times and counts of the
    timed phase are per round; ``cgra.compile_*`` cover the whole
    process, set-up included.
    """
    per = 1.0 / rounds
    self_ns = timed.self_ns + timed.worker_self_ns
    total, calls, values = timed.total_ns, timed.calls, timed.values

    def s(ns: float) -> float:
        return ns * per / 1e9

    lane_turns = values["hil.lane_turns"]
    particle_turns = values["physics.particle_turns"]
    pooled_capacity = values["parallel.pooled_capacity_ns"]
    compile_calls = calls["cgra.compile"] + setup["calls"]["cgra.compile"]
    compile_hits = values["cgra.compile_hits"] + setup["values"]["cgra.compile_hits"]
    ticks = max(timed.maxima.get("cgra.sched_ticks", 0), setup["maxima"].get("cgra.sched_ticks", 0))
    parent_layer_ns = sum(v for k, v in timed.self_ns.items() if k.split(".")[0] in LAYERS)
    return {
        "hil.run_s": s(total["hil.run"]),
        "hil.lane_turns": lane_turns * per,
        "hil.ns_per_lane_turn": total["hil.run"] / lane_turns if lane_turns else 0.0,
        "hil.turn_p50_us": _percentile_us(timed.turn_hist, 0.50),
        "hil.turn_p99_us": _percentile_us(timed.turn_hist, 0.99),
        "hil.turn_samples": sum(timed.turn_hist.values()),
        "hil.callbacks_self_s": s(self_ns["hil.callbacks"]),
        "hil.deadline_misses": values["hil.deadline_misses"] * per,
        "sense.read_s": s(self_ns["sense.read"]),
        "sense.reads": calls["sense.read"] * per,
        "signal.adc_s": s(self_ns["signal.adc"]),
        "signal.adc_calls": calls["signal.adc"] * per,
        "cgra.kernel_self_s": s(self_ns["cgra.run_driven"]),
        "cgra.kernel_steps": values["cgra.kernel_steps"] * per,
        "cgra.sched_ticks": ticks,
        "cgra.compile_s": (total["cgra.compile"] + setup["total_ns"]["cgra.compile"]) / 1e9,
        "cgra.compile_calls": compile_calls,
        "cgra.compile_hit_pct": 100.0 * compile_hits / compile_calls if compile_calls else 0.0,
        "cgra.verify_s": s(total["cgra.verify"]),
        "cgra.verify_calls": calls["cgra.verify"] * per,
        "control.update_s": s(self_ns["control.update"]),
        "control.updates": calls["control.update"] * per,
        "control.saturations": values["control.saturations"] * per,
        "faults.update_s": s(self_ns["faults.update"]),
        "faults.updates": calls["faults.update"] * per,
        "faults.classify_s": s(total["faults.classify"]),
        "faults.scenarios": values["faults.scenarios"] * per,
        "faults.failed": values["faults.failed"] * per,
        "faults.retried": values["faults.retried"] * per,
        "parallel.shards": values["parallel.shards"] * per,
        "parallel.map_s": s(total["parallel.map"]),
        "parallel.shard_busy_s": s(values["parallel.shard_busy_ns"]),
        "parallel.busy_pct": (
            100.0 * values["parallel.shard_busy_ns"] / pooled_capacity if pooled_capacity else 0.0
        ),
        "parallel.overhead_s": s(values["parallel.overhead_ns"]),
        "parallel.result_mb": values["parallel.result_bytes"] * per / 1e6,
        "parallel.failed": values["parallel.failed"] * per,
            "physics.track_s": s(total["physics.step"]),
        "physics.particle_turns": particle_turns * per,
        "physics.ns_per_particle_turn": (
            total["physics.step"] / particle_turns if particle_turns else 0.0
        ),
        "baselines.host_self_s": s(self_ns["baselines.run"]),
        "experiments.metrics_s": s(total["experiments.metrics"]),
        "experiments.metrics_calls": calls["experiments.metrics"] * per,
        "trace.coverage_pct": 100.0 * parent_layer_ns / timed_ns if timed_ns else 0.0,
    }


def layer_self_seconds(timed: Ledger, rounds: int) -> dict[str, float]:
    """Self seconds per layer and round, parent and workers summed."""
    out: dict[str, float] = defaultdict(float)
    for key, ns in (timed.self_ns + timed.worker_self_ns).items():
        out[key.split(".")[0]] += ns / 1e9 / rounds
    return dict(sorted(out.items()))
