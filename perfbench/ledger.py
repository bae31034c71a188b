"""The benchmark's tracer: timing wrappers around ``repro`` entry points.

Tracing lives in the benchmark, not in the program.  :func:`install`
replaces a list of entry points (:class:`Target`, listed per layer in
``layers.py``) with wrappers and returns an :class:`Install` whose
``restore()`` puts every original back.

Three kinds of wrapper share one self-time stack:

* ``span`` wraps calls made a few times per unit of work (a run, a
  shard, a campaign).  Each records name, start, end, parent span and
  unit id; spans are kept in memory and written out when the run ends.
* ``call`` wraps calls made every revolution (sense reads, ADC
  conversions, control and fault updates).  It only adds to per-key
  counters, so ~10^6 turns cost no memory.
* ``turn`` is a ``call`` that also adds one sample to the per-turn
  latency histogram (the scalar bench's ``step_revolution``); the
  batched loop's turns are bracketed by its ``pre``/``post`` callbacks.

On entry a wrapper pushes a child-time accumulator; on exit it books
``duration - children`` as its key's self time and credits its duration
to the caller.  A layer's self time is its span time minus the part its
child spans and calls cover.

Pool workers are forked with the wrappers installed.  A fork hook gives
each worker an empty ledger; every *unit* span (a shard function)
spools the worker's ledger to a JSON file when it returns, and the
``map_sharded`` wrapper folds those files into the parent's ledger
before it returns.  Worker self times are kept apart from the parent's,
so coverage is judged on the parent's own timeline.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

_ns = time.perf_counter_ns

#: Histogram bin width for per-turn latencies, nanoseconds.
TURN_BIN_NS = 100

_COUNTERS = ("self_ns", "worker_self_ns", "total_ns", "calls", "values")


class WrapperError(RuntimeError):
    """A wrapped entry point is missing, renamed or already wrapped."""


class Ledger:
    """Spans, counters and the turn-latency histogram of one process."""

    def __init__(self, spool: Path | None = None) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.in_worker = False
        self._seen: set[int] = set()
        self._dumps = 0
        self._next_span = 1
        self._reset_stack()
        self.clear()

    def _reset_stack(self) -> None:
        """Empty open-frame stack: child-time accumulators, frame keys
        and span ids, with a root frame at the bottom."""
        self.acc: list[int] = [0]
        self.keys: list[str] = [""]
        self.span_ids: list[int] = [0]
        self.unit = "setup"
        self._turn_t0 = 0

    def clear(self) -> None:
        """Drop every recorded figure (open frames stay open)."""
        #: (unit, span_id, parent_id, name, start_ns, end_ns, pid)
        self.spans: list[tuple] = []
        #: Self time per key in this process; pool workers' self time
        #: lands in ``worker_self_ns`` when their spool is merged.
        self.self_ns: Counter = Counter()
        self.worker_self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.values: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.turn_hist: Counter = Counter()
        #: Per-unit call counts: unit id -> {key: calls}.
        self.units: dict[str, dict[str, int]] = {}

    def split(self) -> dict:
        """Return the figures so far as a snapshot and start afresh."""
        snap = {name: Counter(getattr(self, name)) for name in _COUNTERS}
        snap["maxima"] = dict(self.maxima)
        snap["spans"] = list(self.spans)
        snap["units"] = dict(self.units)
        self.clear()
        return snap

    # -- counters -----------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.values[key] += value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def first_sight(self, obj: Any) -> bool:
        """True the first time this process sees ``obj`` (cache-hit test)."""
        oid = id(obj)
        if oid in self._seen:
            return False
        self._seen.add(oid)
        return True

    def turn_start(self) -> None:
        self._turn_t0 = _ns()

    def turn_end(self) -> None:
        self.turn_hist[(_ns() - self._turn_t0) // TURN_BIN_NS] += 1

    # -- spool (pool workers) ------------------------------------------

    def after_fork(self) -> None:
        """Fork hook: a worker starts from an empty ledger."""
        self.pid = os.getpid()
        self.in_worker = True
        self._dumps = 0
        self._reset_stack()
        self.clear()

    def dump(self) -> None:
        """Write this worker's figures to the spool and start afresh."""
        if self.spool is None:
            return
        self._dumps += 1
        path = self.spool / f"{self.pid}-{self._dumps}.json"
        payload = {name: getattr(self, name) for name in _COUNTERS}
        payload.update(
            spans=self.spans,
            maxima=self.maxima,
            turn_hist={str(k): v for k, v in self.turn_hist.items()},
            units=self.units,
        )
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        self.clear()

    def merge_spool(self) -> int:
        """Fold every spooled worker ledger into this one; returns files read."""
        if self.spool is None or self.in_worker:
            return 0
        paths = sorted(self.spool.glob("*.json"))
        for path in paths:
            data = json.loads(path.read_text())
            path.unlink()
            self.spans.extend(tuple(s) for s in data["spans"])
            self.worker_self_ns.update(data["self_ns"])
            for name in ("total_ns", "calls", "values"):
                getattr(self, name).update(data[name])
            for key, value in data["maxima"].items():
                self.peak(key, value)
            self.turn_hist.update({int(k): v for k, v in data["turn_hist"].items()})
            self.units.update(data["units"])
        return len(paths)

    # -- units ----------------------------------------------------------

    def open_unit(self, name: str) -> tuple[str, Counter]:
        previous = self.unit
        prefix = f"w{self.pid}" if self.in_worker else previous
        self.unit = f"{prefix}/{name}#{self._next_span}"
        return previous, Counter(self.calls)

    def close_unit(self, previous: str, before: Counter) -> None:
        delta = Counter(self.calls)
        delta.subtract(before)
        self.units[self.unit] = {k: v for k, v in delta.items() if v > 0}
        self.unit = previous


#: The ledger the wrappers write to (set by install(), one per process).
_ACTIVE: list[Ledger] = []


def _layer(key: str) -> str:
    return key.split(".", 1)[0]


# -- wrapper factories --------------------------------------------------


def folded(key: str, fn: Callable, on_exit: Callable | None = None,
           outermost: bool = False, turn: bool = False) -> Callable:
    """Counters only.  ``outermost`` counts a call only when it is not
    nested in another call of the same layer (``quantize`` calls
    ``convert``); ``turn`` also samples the turn-latency histogram."""
    layer = _layer(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        led = _ACTIVE[0]
        acc = led.acc
        keys = led.keys
        if not outermost or _layer(keys[-1]) != layer:
            led.calls[key] += 1
        acc.append(0)
        keys.append(key)
        t0 = _ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = _ns() - t0
            keys.pop()
            child = acc.pop()
            led.self_ns[key] += dt - child
            led.total_ns[key] += dt
            acc[-1] += dt
            if turn:
                led.turn_hist[dt // TURN_BIN_NS] += 1
        if on_exit is not None:
            on_exit(led, args, result, dt)
        return result

    wrapper.__perfbench__ = key
    return wrapper


def span(key: str, fn: Callable, on_exit: Callable | None = None,
         unit: bool = False) -> Callable:
    """A recorded span.  ``unit`` marks a shard/run boundary: its spans
    get a fresh unit id, and in a pool worker the ledger is spooled."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        led = _ACTIVE[0]
        if unit:
            previous, before = led.open_unit(key)
        led.calls[key] += 1
        span_id = led._next_span
        led._next_span += 1
        parent = led.span_ids[-1]
        led.span_ids.append(span_id)
        led.acc.append(0)
        led.keys.append(key)
        t0 = _ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _ns()
            dt = t1 - t0
            led.keys.pop()
            child = led.acc.pop()
            led.span_ids.pop()
            led.self_ns[key] += dt - child
            led.total_ns[key] += dt
            led.acc[-1] += dt
            led.spans.append((led.unit, span_id, parent, key, t0, t1, led.pid))
            if unit:
                led.close_unit(previous, before)
        if on_exit is not None:
            on_exit(led, args, result, dt)
        if unit and led.in_worker:
            led.dump()
        return result

    wrapper.__perfbench__ = key
    return wrapper


def driven(key: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
    """Span around a ``run_driven(n, pre=, post=)`` call whose callbacks
    are folded under ``hil.callbacks``; ``pre`` start to ``post`` end is
    one turn-latency sample."""
    traced = span(key, fn, on_exit)

    @functools.wraps(fn)
    def wrapper(self, n_iterations, pre=None, post=None):
        if pre is not None:
            inner_pre = folded("hil.callbacks", pre)

            def pre(i, inner=inner_pre):
                _ACTIVE[0].turn_start()
                return inner(i)

        if post is not None:
            inner_post = folded("hil.callbacks", post)

            def post(i, inner=inner_post):
                result = inner(i)
                _ACTIVE[0].turn_end()
                return result

        return traced(self, n_iterations, pre=pre, post=post)

    wrapper.__perfbench__ = key
    return wrapper


# -- installation ---------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module[.owner].attr``."""

    key: str
    module: str
    attr: str
    #: "span", "call", "turn" or "driven".
    kind: str = "call"
    #: Class holding the method; None for a module-level function.
    owner: str | None = None
    #: ``on_exit(ledger, args, result, dt_ns)`` hook.
    on_exit: Callable | None = None
    unit: bool = False
    outermost: bool = False

    @property
    def where(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


@dataclass
class Install:
    """Installed wrappers; ``restore()`` puts every original back."""

    ledger: Ledger
    patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches.clear()
        _ACTIVE.clear()


def resolve(target: Target) -> tuple[Any, Callable]:
    """``(holder, original)`` of a target; raise if it is gone."""
    module = sys.modules.get(target.module)
    if module is None:
        raise WrapperError(f"{target.key}: module {target.module} is not imported")
    holder: Any = module
    if target.owner is not None:
        holder = getattr(module, target.owner, None)
        if not isinstance(holder, type):
            raise WrapperError(f"{target.key}: class {target.module}.{target.owner} is missing")
        # The class's own attribute: a method inherited from a base
        # class would be a different entry point than the one named.
        original = holder.__dict__.get(target.attr)
    else:
        original = getattr(module, target.attr, None)
    if not callable(original):
        raise WrapperError(f"{target.key}: entry point {target.where} is missing or renamed")
    if getattr(original, "__perfbench__", None) is not None:
        raise WrapperError(f"{target.key}: {target.where} is already wrapped")
    return holder, original


def _wrap(target: Target, original: Callable) -> Callable:
    if target.kind == "driven":
        return driven(target.key, original, target.on_exit)
    if target.kind == "span":
        return span(target.key, original, target.on_exit, target.unit)
    if target.kind in ("call", "turn"):
        return folded(target.key, original, target.on_exit, target.outermost,
                      turn=target.kind == "turn")
    raise WrapperError(f"{target.key}: unknown wrapper kind {target.kind!r}")


def install(targets: list[Target], spool: Path | None = None) -> Install:
    """Wrap every target, or raise :class:`WrapperError` before patching
    anything when one is missing.

    A module-level function is replaced in every loaded ``repro`` module
    that holds the same object, so callers that bound it with
    ``from x import f`` see the wrapper too.
    """
    if _ACTIVE:
        raise WrapperError("a ledger is already installed in this process")
    resolved = [(t, *resolve(t)) for t in targets]
    ledger = Ledger(spool)
    inst = Install(ledger)
    _ACTIVE.append(ledger)
    try:
        for target, holder, original in resolved:
            wrapper = _wrap(target, original)
            if target.owner is not None:
                inst.patches.append((holder, target.attr, original))
                setattr(holder, target.attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        inst.patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
    except BaseException:
        inst.restore()
        raise
    _register_fork_hook()
    return inst


_FORK_HOOK: list[bool] = []


def _register_fork_hook() -> None:
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_after_fork)
        _FORK_HOOK.append(True)


def _after_fork() -> None:
    if _ACTIVE:
        _ACTIVE[0].after_fork()
