"""Repo benchmark: run one workload with one seed, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads: ``sweep``, ``campaign``, ``fig5a-scalar``, ``fig5b-machine``
(see perfbench/README.md).  Every measured process is a fresh
interpreter started with a fixed environment (:func:`child_env`).

``--trace 0`` runs ``SETUP_SAMPLES`` set-up-only processes and one
measured process and prints the end-to-end metrics.  ``--trace 1`` runs
the workload twice, untraced and traced, for half the seconds each,
checks that both produce byte-identical outputs, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a human-readable table and the provenance
(machine fingerprint, source commit).  A failed output check exits 1;
a crashed child exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Set-up-only processes per ``--trace 0`` run; ``setup_s`` is the
#: median of these and the measured process's own set-up.
SETUP_SAMPLES = 2

#: Wall-clock limit of one child process, seconds.
CHILD_TIMEOUT_S = 150

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fs_err_pct": "%",
}


def child_env() -> dict[str, str]:
    """The run environment, fixed by the benchmark: a fixed hash seed,
    and every BLAS/OpenMP pool capped at one thread so the pooled
    workload's two workers never exceed the cores."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    env.pop("PYTHONPATH", None)
    return env


def source_commit() -> str:
    """Git commit of the checkout, read from ``.git`` without running git;
    otherwise a hash of the ``src/repro`` tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def machine_fingerprint() -> dict:
    """What must match before two results may be compared."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        mem_kb = int(Path("/proc/meminfo").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        mem_kb = 0
    import numpy

    info = {
        "cpu": cpu,
        "cpus": len(os.sched_getaffinity(0)),
        "mem_gb": round(mem_kb / 2**20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    info["id"] = hashlib.sha256(json.dumps(info, sort_keys=True).encode()).hexdigest()[:12]
    return info


def run_child(workdir: Path, tag: str, *args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON result."""
    out = workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out), *args]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr, start_new_session=True
    )
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"error": f"{tag}: timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        # Reap anything the child left behind in its session (a pool
        # worker orphaned by a crash).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if not out.exists():
        return {"error": f"{tag}: exited {proc.returncode} without a result"}
    return json.loads(out.read_text())


def outcome(results: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over measured results."""
    attempted = failed = 0
    problems: list[str] = []
    for res in results:
        rounds = len(res["round_s"])
        attempted += res["units"] * rounds
        failed += res["failed_units"] * rounds
        problems += res["problems"]
        drift = [i for i, d in enumerate(res["digests"]) if d != res["digests"][0]]
        if drift:
            failed += res["units"] * len(drift)
            problems.append(f"rounds {drift} differ from round 0 (non-deterministic output)")
    return failed == 0 and not problems, max(attempted, 1), failed, problems


def end_to_end(setups: list[dict], main: dict) -> dict:
    """The end-to-end metrics of one ``--trace 0`` run."""
    return {
        "run_s": statistics.median(main["round_s"]),
        "setup_s": statistics.median([s["setup_s"] for s in setups + [main]]),
        "peak_rss_mb": main["peak_rss_mb"],
        # No finite f_s at all means every unit failed its check.
        "fs_err_pct": statistics.median(main["fs_err_pct"] or [float("nan")]),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="'smoke' shrinks every workload for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    spool = workdir / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        if args.trace == 0:
            setups = [run_child(workdir, f"setup{i}", *base, "--mode", "setup")
                      for i in range(SETUP_SAMPLES)]
            main_res = run_child(workdir, "main", *base, "--seconds", str(args.seconds))
            measured = [main_res]
        else:
            half = str(args.seconds / 2)
            trace_out = scratch / f"trace-{args.workload}-seed{args.seed}.json"
            untraced = run_child(workdir, "untraced", *base, "--seconds", half)
            traced = run_child(workdir, "traced", *base, "--seconds", half, "--trace", "1",
                               "--spool", str(spool), "--trace-out", str(trace_out))
            setups, measured = [], [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no trace file is kept there
        except OSError:
            pass

    errors = [r["error"] for r in setups + measured if "error" in r]
    if errors:
        # A process that crashed measured nothing: no result line.
        for e in errors:
            print(e, file=sys.stderr)
        return 1

    correct, attempted, failed, problems = outcome(measured)
    if args.trace == 0:
        values = end_to_end(setups, main_res)
        units = END_TO_END
        rows = [f"{k:<14} {v:>14.6g} {units[k]:<6}" for k, v in values.items()]
        rows.append(f"{'fail_pct':<14} {100.0 * failed / attempted:>14.6g} %      "
                    f"({failed} of {attempted} {WORKLOADS[args.workload].unit}s)")
        rows.append(f"{'rounds':<14} {len(main_res['round_s']):>14d} "
                    + " ".join(f"{r:.4g}" for r in main_res["round_s"]))
    else:
        from layers import PER_LAYER

        if untraced["digests"][0] != traced["digests"][0]:
            correct = False
            failed += 1
            problems.append("traced outputs differ from untraced outputs")
        values = dict(traced["layers"])
        values["setup.import_s"] = untraced["import_s"]
        values["setup.build_s"] = untraced["build_s"]
        values["parallel.pool_start_s"] = untraced["pool_start_s"]
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced["round_s"]) / statistics.median(untraced["round_s"]) - 1
        )
        values = {k: values[k] for k in PER_LAYER}
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        rows = [f"{k:<30} {v:>14.6g} {units[k]}" for k, v in values.items()]
        rows += [f"  self {k:<24} {v:>14.6g} s/round" for k, v in traced["layer_self_s"].items()]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for row in rows:
        print(row)
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print("# provenance " + json.dumps({
        "commit": source_commit(), "machine": machine_fingerprint(),
        "inputs": measured[0]["inputs"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
