"""One benchmark process: set up a workload, then time rounds of it.

``run.py`` starts this script in a fresh interpreter for every set-up
sample and every measured run; it is not meant to be called by hand.
It writes one JSON result to ``--out``.

Modes:

* ``setup`` — import ``repro``, build the workload, stop.  Reports
  ``setup_s`` only.
* ``run`` — set up, then repeat rounds until the next one would end
  after ``--seconds``.  With ``--trace 1`` the ``repro`` entry points
  are wrapped (``layers.targets``) after the imports and before the
  build, and the per-layer ledger is reported too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS  # noqa: E402

def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (the pool workers, once the pool is closed), MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _timed_rounds(wl, seconds: float, led=None) -> dict:
    """Repeat rounds until the next one would end after ``seconds``."""
    round_s: list[float] = []
    digests: list[str] = []
    first = None
    deadline = time.perf_counter() + seconds
    run_round = wl.run_round
    if led is not None:
        from ledger import span

        run_round = span("bench.round", wl.run_round)
    while True:
        if led is not None:
            led.unit = f"round-{len(round_s)}"
        t0 = time.perf_counter()
        out = run_round()
        dt = time.perf_counter() - t0
        round_s.append(dt)
        digests.append(wl.digest(out))
        if first is None:
            first = out
        if time.perf_counter() + dt > deadline:
            break
    return {"round_s": round_s, "digests": digests, "first": first}


def run(args: argparse.Namespace) -> dict:
    wl = WORKLOADS[args.workload](args.seed, args.size)
    sys.path.insert(0, str(ROOT / "src"))
    inst = None
    t0 = time.perf_counter()
    import repro  # noqa: F401

    if args.trace:
        import ledger
        import layers

        for target in layers.targets():
            __import__(target.module)
        t_import = time.perf_counter()
        inst = ledger.install(layers.targets(), spool=Path(args.spool))
    else:
        t_import = time.perf_counter()
    result: dict = {"inputs": wl.inputs}
    try:
        wl.build()
        t_build = time.perf_counter()
        result.update(
            setup_s=t_build - t0, import_s=t_import - t0, build_s=t_build - t_import,
            pool_start_s=wl.pool_start_s,
        )
        if args.mode == "setup":
            return result
        setup_snap = inst.ledger.split() if inst else None
        timed = _timed_rounds(wl, args.seconds, inst.ledger if inst else None)
        if inst:
            import layers

            led = inst.ledger
            rounds = len(timed["round_s"])
            result["layers"] = layers.layer_metrics(
                setup_snap, led, rounds, sum(timed["round_s"]) * 1e9
            )
            result["layer_self_s"] = layers.layer_self_seconds(led, rounds)
            if args.trace_out:
                Path(args.trace_out).write_text(json.dumps({
                    "workload": args.workload, "seed": args.seed, "rounds": rounds,
                    "layer_self_s": result["layer_self_s"],
                    "spans": setup_snap["spans"] + led.spans,
                    "units": {**setup_snap["units"], **led.units},
                }))
    finally:
        if inst:
            inst.restore()
        wl.close()
    # Checks run after the ledger is gone, so they never count as work.
    check = wl.check(timed["first"])
    result.update(
        round_s=timed["round_s"], digests=timed["digests"],
        units=check.units, failed_units=check.failed, problems=check.problems,
        fs_err_pct=check.fs_err_pct, peak_rss_mb=peak_rss_mb(),
    )
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--spool", default=None)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except Exception:
        result = {"error": traceback.format_exc()}
    Path(args.out).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
