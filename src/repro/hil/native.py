"""Build, cache and load the native revolution loop (``revloop.c``).

The loop is one static C file compiled once with the system compiler
(``$CC``, else ``cc`` on ``PATH``) and loaded with :mod:`ctypes`.  The
shared object is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``; a per-user temp directory when that is not
writable), keyed by the SHA-256 of the C source, the compiler's version
banner and the flags.  Builds write a temp file and ``os.replace`` it
into place, so concurrent processes never see a partial library.  Each
file ends with the SHA-256 of its contents; a cached file whose digest
does not match (truncated, corrupted) is rebuilt, never loaded.

Before first use the library's ``sin`` is compared bit for bit with
``np.sin`` on a probe corpus (array lengths 1–16 and a long array); any
mismatch, like a missing compiler or a failed build, makes
:func:`library` return None and the bench keeps its Python path.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["RevLoop", "library"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("revloop.c")
#: Bit-exactness needs IEEE semantics: no FMA contraction, no fast-math.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_i64, _f64 = ctypes.c_int64, ctypes.c_double
_pi32 = ctypes.POINTER(ctypes.c_int32)
_pi64 = ctypes.POINTER(ctypes.c_int64)
_pf64 = ctypes.POINTER(ctypes.c_double)
_pu8 = ctypes.POINTER(ctypes.c_uint8)


class RevLoop(ctypes.Structure):
    """Mirror of ``revloop_t`` (field order and types must match)."""

    _fields_ = [
        *((name, _i64) for name in
          ("lanes", "n_bunches", "n_rows", "n_latch", "single", "gamma_slot")),
        ("tape", _pi32), ("latch", _pi32), ("regs", _pf64),
        *((name, _f64) for name in
          ("t_rev", "f_sample", "w_ref", "w_gap", "adc_amplitude", "lsb")),
        *((name, _i64) for name in ("quantize", "code_min", "code_max", "adc_bits")),
        *((name, _f64) for name in ("jump_start", "jump_period", "jump_deg", "d2r")),
        ("amps", _pf64), ("gap", _pf64),
        *((name, _i64) for name in
          ("ctrl_enabled", "ctrl_divider", "ctrl_has_limit", "use_bunch0",
           "ctrl_tick", "saturations")),
        *((name, _f64) for name in ("ctrl_limit", "ctrl_r", "ctrl_gc", "phase_scale")),
        ("x_prev", _pf64), ("y_prev", _pf64), ("last", _pf64),
        ("delta_t", _pf64), ("time", _f64),
        ("fault_active", _pu8), ("fault_stuck", _pu8),
        ("gap_phase", _pf64), ("gap_gain", _pf64), ("gap_clip", _pf64),
        ("stuck_mask", _pi64),
        ("rec_every", _i64), ("turn0", _i64), ("rec_idx", _i64),
        *((name, _pf64) for name in
          ("rec_time", "rec_phase", "rec_corr", "rec_jump", "rec_dt", "rec_dt_all",
           "rec_gamma")),
        ("adc_samples", _i64), ("adc_clips", _i64),
        ("scratch", _pf64),
    ]


#: None until the first :func:`library` call, then the library or False.
_LIB: ctypes.CDLL | bool | None = None


def library() -> ctypes.CDLL | None:
    """The checked native loop library, or None when unavailable.

    Built (or loaded from the cache) on the first call in a process;
    later calls return the same answer.
    """
    global _LIB
    if _LIB is None:
        try:
            _LIB = _load() or False
        except Exception as exc:  # never let the fast path break a run
            log.warning("native revolution loop unavailable: %s", exc, exc_info=True)
            _LIB = False
    return _LIB or None


def _cache_dir() -> Path:
    """Where built libraries live (created on demand)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    for path in (Path(base) / "repro", Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    raise OSError("no writable cache directory for the native loop")


def _compiler() -> tuple[list[str], str] | None:
    """(command, version banner) of the system C compiler, or None."""
    cc = shlex.split(os.environ.get("CC") or "") or ["cc"]
    if shutil.which(cc[0]) is None:
        return None
    try:
        proc = subprocess.run([*cc, "--version"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return cc, proc.stdout


def _build(cc: list[str], target: Path) -> bool:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.stem}-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            log.warning("native revolution loop build failed:\n%s", proc.stderr.strip())
            return False
        # Seal the file: a trailing SHA-256 of its contents (the dynamic
        # loader ignores bytes past the ELF sections).
        with open(tmp, "r+b") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning("native revolution loop build failed: %s", exc)
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _sealed(path: Path) -> bool:
    """Whether ``path`` is a complete build: its trailing digest matches."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def _open(path: Path) -> ctypes.CDLL | None:
    """Load ``path`` and bind its entry points; None if it is unusable.

    Only sealed files reach the loader: mapping a truncated shared
    object can fault the process instead of failing the load."""
    if not _sealed(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
        lib.revloop_sizeof.restype = _i64
        lib.revloop_sizeof.argtypes = []
        lib.revloop_run.restype = _i64
        lib.revloop_run.argtypes = [ctypes.POINTER(RevLoop), _i64]
        lib.revloop_sin.restype = None
        lib.revloop_sin.argtypes = [_pf64, _pf64, _i64]
    except (OSError, AttributeError):
        return None
    if lib.revloop_sizeof() != ctypes.sizeof(RevLoop):
        return None
    return lib


def _load() -> ctypes.CDLL | None:
    found = _compiler()
    if found is None:
        log.info("no C compiler: the batched bench runs its Python loop")
        return None
    cc, banner = found
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), banner.encode(), " ".join(CFLAGS).encode()):
        key.update(part)
        key.update(b"\0")
    target = _cache_dir() / f"revloop-{key.hexdigest()[:20]}.so"
    lib = _open(target)
    if lib is None:
        # Missing, truncated or stale: rebuild and replace atomically.
        if not _build(cc, target):
            return None
        lib = _open(target)
        if lib is None:
            return None
    if not _sin_matches(lib):
        log.warning("native sin differs from np.sin: the batched bench keeps its Python loop")
        return None
    return lib


def _sin_matches(lib: ctypes.CDLL) -> bool:
    """Bitwise ``sin`` agreement with NumPy on the probe corpus."""
    rng = np.random.default_rng(0x5EED)
    corpus = np.concatenate([
        rng.uniform(-64.0, 64.0, 4096),
        rng.uniform(-1e4, 1e4, 512),
        np.linspace(-4.0 * np.pi, 4.0 * np.pi, 1025),
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, np.pi, -np.pi, 0.5 * np.pi, 1e6, 1e22],
    ])
    got = np.empty_like(corpus)
    lib.revloop_sin(corpus.ctypes.data_as(_pf64), got.ctypes.data_as(_pf64), corpus.size)
    if not np.array_equal(got.view(np.uint64), np.sin(corpus).view(np.uint64)):
        return False
    # The bench calls np.sin on [B] arrays: probe every short length too.
    for n in range(1, 17):
        for start in range(0, 256, n):
            chunk = corpus[start:start + n].copy()
            if not np.array_equal(np.sin(chunk).view(np.uint64),
                                  got[start:start + n].view(np.uint64)):
                return False
    return True
