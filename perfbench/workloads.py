"""The four workloads: seeded inputs, set-up, one timed round, checks.

Each workload's inputs (``Workload.inputs``, built by ``make_inputs``)
are a pure function of ``(seed, size)`` made with NumPy alone; the
program only ever sees those inputs.  A *round* is a fixed amount of work; the child process repeats
rounds for the run's seconds and every round must reproduce the first
round's output digest bit for bit.

Every ``repro`` call goes through a module attribute looked up at call
time (``fig5.fig5_metrics(...)``), so the traced run's wrappers see the
workload's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

#: Paper values and the tolerances a unit must meet (the same bounds
#: the repo's own Fig. 5 tests use).
PAPER_FS_BENCH_HZ = 1280.0
PAPER_FS_MACHINE_HZ = 1200.0
FS_REL_TOL = 0.08
SETTLE_TOL_BENCH_DEG = 0.5
SETTLE_TOL_MACHINE_DEG = 1.0
PEAK_RATIO_BENCH = (0.8, 1.1)
PEAK_RATIO_MACHINE = (0.8, 1.15)

#: Machine time of every closed-loop run: the first jump at 5 ms plus
#: the 55 ms ``fig5_metrics`` needs to see the settled level, plus a
#: 2 ms margin.
DURATION_S = 0.062
JUMP_TIME_S = 0.005


def jobs() -> int:
    """Pool size of the pooled workload: two workers, never above nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Check:
    """Outcome of checking one round's outputs."""

    units: int = 0
    failed: int = 0
    fs_err_pct: list[float] = field(default_factory=list)
    #: One line per failed unit or check.
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def digest(*parts) -> str:
    """SHA-256 over arrays (as float64 bytes) and plain values (``repr``,
    which round-trips floats exactly)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def check_fig5(check: Check, label: str, m, jump_deg: float, machine: bool) -> None:
    """Check one run's Fig. 5 metrics against the paper's tolerances."""
    paper = PAPER_FS_MACHINE_HZ if machine else PAPER_FS_BENCH_HZ
    settle_tol = SETTLE_TOL_MACHINE_DEG if machine else SETTLE_TOL_BENCH_DEG
    lo, hi = PEAK_RATIO_MACHINE if machine else PEAK_RATIO_BENCH
    f_s, settled, pp = m.synchrotron_frequency, m.settled_shift, m.first_peak_to_peak
    check.units += 1
    if not all(map(math.isfinite, (f_s, settled, pp))):
        check.fail(f"{label}: non-finite Fig. 5 metrics")
        return
    err = abs(f_s - paper) / paper
    check.fs_err_pct.append(100.0 * err)
    ratio = pp / (2.0 * jump_deg)
    if err > FS_REL_TOL:
        check.fail(f"{label}: f_s {f_s:.1f} Hz is {100 * err:.1f}% off {paper:.0f} Hz")
    elif abs(settled - jump_deg) > settle_tol:
        check.fail(f"{label}: settled shift {settled:.3f} deg, jump {jump_deg:.3f} deg")
    elif not lo < ratio < hi:
        check.fail(f"{label}: first peak-to-peak ratio {ratio:.3f} outside ({lo}, {hi})")


def _warm(index: int) -> int:
    """Pool warm-up item: forces every worker to start."""
    return index


class Workload:
    """Base class; subclasses define the inputs, set-up and one round."""

    name = ""
    #: What one checked unit is (the denominator of ``fail_pct``).
    unit = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in ("full", "smoke"):
            raise ValueError(f"size must be 'full' or 'smoke', got {size!r}")
        self.inputs = self.make_inputs(np.random.default_rng(seed), size == "smoke")
        self.pool_start_s = 0.0

    @staticmethod
    def make_inputs(rng: np.random.Generator, smoke: bool) -> dict:
        raise NotImplementedError

    def build(self) -> None:
        """Set-up: config build, kernel compile, pool start."""

    def run_round(self):
        raise NotImplementedError

    def check(self, out) -> Check:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``build`` started."""


def _amps(rng: np.random.Generator, n: int, lo: float = 2.0, hi: float = 12.0) -> tuple:
    return tuple(float(a) for a in rng.uniform(lo, hi, n))


def _compile_beam_kernel() -> None:
    """Compile the beam model and its flat program (the kernel cache)."""
    from repro.cgra import engine, models

    model = models.compile_beam_model(n_bunches=1, pipelined=True)
    engine.compile_program(model.schedule)


class Sweep(Workload):
    """Batched jump-amplitude sweep: one SWEEP_CHUNK shard per round."""

    name = "sweep"
    unit = "lane"

    @staticmethod
    def make_inputs(rng, smoke):
        return {"amps": _amps(rng, 2 if smoke else 8), "duration": DURATION_S}

    def build(self):
        from repro.experiments import sweep

        self.tasks = sweep.plan_sweep(np.asarray(self.inputs["amps"]), self.inputs["duration"])
        _compile_beam_kernel()

    def run_round(self):
        from repro import parallel
        from repro.experiments import sweep

        return parallel.run_sharded(sweep.run_sweep_shard, self.tasks, jobs=1)

    def check(self, out):
        check = Check()
        for task, r in zip(self.tasks, out):
            if r.failure is not None:
                for lane in range(len(task.amps)):
                    check.units += 1
                    check.fail(f"lane {task.offset + lane}: shard raised {r.failure.summary()}")
                continue
            v = r.value
            for lane, amp in enumerate(v.amps):
                m = _Fig5(v.f_s[lane], v.first_pp[lane], v.settled[lane])
                check_fig5(check, f"lane {v.offset + lane}", m, float(amp), machine=False)
            if v.deadline_misses:
                check.fail(f"shard {v.offset}: {v.deadline_misses} deadline misses")
        return check

    def digest(self, out):
        parts = []
        for r in out:
            if r.failure is not None:
                parts.append(r.failure.summary())
                continue
            v = r.value
            parts += [v.offset, v.amps, v.f_s, v.first_pp, v.settled, v.n_turns,
                      v.deadline_misses]
        return digest(*parts)


@dataclass
class _Fig5:
    """The three Fig. 5 metrics a sweep shard returns per lane."""

    synchrotron_frequency: float
    first_peak_to_peak: float
    settled_shift: float


class Campaign(Workload):
    """Fault campaign over a warm two-worker pool."""

    name = "campaign"
    unit = "scenario"
    pool = None

    @staticmethod
    def make_inputs(rng, smoke):
        return {
            "base_seed": int(rng.integers(0, 2**31 - 1)),
            "duration": DURATION_S,
            "onset_times": (0.02,),
            "magnitudes_per_kind": 1 if smoke else 2,
        }

    def build(self):
        import time

        from repro import parallel
        from repro.faults import campaign

        self.config = campaign.CampaignConfig(**self.inputs)
        # The pool primes the compile caches in the parent before it
        # forks; the warm-up map starts every worker.
        self.pool = parallel.WorkerPool(jobs=jobs())
        t0 = time.perf_counter()
        parallel.raise_on_failures(self.pool.map_sharded(_warm, range(self.pool.jobs)))
        self.pool_start_s = time.perf_counter() - t0

    def run_round(self):
        from repro.faults import campaign

        return campaign.run_campaign(self.config, pool=self.pool)

    def check(self, out):
        from repro.experiments import fig5
        from repro.faults.report import Outcome
        from repro.faults.spec import FaultKind

        check = Check()
        # The unfaulted baseline lane must recover from its own phase
        # jump within the paper's tolerances.
        trace = out.baseline_phase_deg[:, 0]
        if not np.all(np.isfinite(trace)):
            check.units += 1
            check.fail("baseline: non-finite trace")
        else:
            m = fig5.fig5_metrics(out.baseline_time, trace, out.config.jump_deg, JUMP_TIME_S)
            check_fig5(check, "baseline", m, out.config.jump_deg, machine=False)
        for i, (spec, report) in enumerate(zip(out.scenarios, out.reports)):
            check.units += 1
            label = f"scenario {i} ({spec.label})"
            if report.outcome is Outcome.FAILED:
                check.fail(f"{label}: FAILED")
            elif spec.kind is FaultKind.CGRA_CONTEXT_CORRUPTION:
                if report.outcome is not Outcome.DETECTED:
                    check.fail(f"{label}: context corruption {report.outcome.name}")
        return check

    def digest(self, out):
        return digest(*out.csv_columns(), out.baseline_time, out.baseline_phase_deg,
                      out.n_turns, out.retried)

    def close(self):
        if self.pool is not None:
            self.pool.close()


class Fig5aScalar(Workload):
    """A list of scalar Fig. 5a bench runs, each followed by fig5_metrics."""

    name = "fig5a-scalar"
    unit = "run"

    @staticmethod
    def make_inputs(rng, smoke):
        return {"amps": _amps(rng, 1 if smoke else 4), "duration": DURATION_S}

    def build(self):
        from repro.cgra import models
        from repro.experiments import mde

        configs = [mde.bench_config(engine="python", jump_deg=a) for a in self.inputs["amps"]]
        cfg = configs[0]
        models.compile_beam_model(
            n_bunches=cfg.n_bunches, pipelined=cfg.pipelined, config=cfg.cgra_config
        )

    def run_round(self):
        from repro.experiments import fig5

        out = []
        for amp in self.inputs["amps"]:
            res = fig5.fig5_run_bench(self.inputs["duration"], engine="python", jump_deg=amp)
            m = fig5.fig5_metrics(res.time, res.phase_deg_smoothed(5), amp, JUMP_TIME_S)
            out.append((amp, res, m))
        return out

    def check(self, out):
        check = Check()
        for i, (amp, res, m) in enumerate(out):
            if not np.all(np.isfinite(res.phase_deg)):
                check.units += 1
                check.fail(f"run {i}: non-finite trace")
                continue
            check_fig5(check, f"run {i}", m, amp, machine=False)
            if res.deadline.misses:
                check.fail(f"run {i}: {res.deadline.misses} deadline misses")
        return check

    def digest(self, out):
        parts = []
        for amp, res, m in out:
            parts += [amp, res.time, res.phase_deg, res.correction_deg, res.delta_t,
                      res.gamma_ref, repr(m)]
        return digest(*parts)


class Fig5bMachine(Workload):
    """One Fig. 5b machine emulation per round at 5000 particles."""

    name = "fig5b-machine"
    unit = "run"

    @staticmethod
    def make_inputs(rng, smoke):
        return {
            "bunch_seed": int(rng.integers(0, 2**31 - 1)),
            "amp": float(rng.uniform(6.0, 12.0)),
            "n_particles": 500 if smoke else 5000,
            "duration": DURATION_S,
        }

    def build(self):
        from repro.experiments import mde

        mde.machine_config(
            n_particles=self.inputs["n_particles"],
            seed=self.inputs["bunch_seed"],
            jump_deg=self.inputs["amp"],
        )

    def run_round(self):
        from repro.experiments import fig5

        i = self.inputs
        res = fig5.fig5_run_machine(
            i["duration"], n_particles=i["n_particles"], seed=i["bunch_seed"], jump_deg=i["amp"]
        )
        m = fig5.fig5_metrics(res.time, res.phase_deg, i["amp"], JUMP_TIME_S)
        return res, m

    def check(self, out):
        res, m = out
        check = Check()
        if not np.all(np.isfinite(res.phase_deg)):
            check.units += 1
            check.fail("run: non-finite trace")
        else:
            check_fig5(check, "run", m, self.inputs["amp"], machine=True)
        return check

    def digest(self, out):
        res, m = out
        return digest(res.time, res.phase_deg, res.sigma_delta_t, res.correction_deg, repr(m))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Sweep, Campaign, Fig5aScalar, Fig5bMachine)
}
