"""Locating the program under test and facts about the machine."""

from __future__ import annotations

import contextlib
import glob
import importlib
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


#: conespec's work on an instance depends on set iteration order, which
#: string hashing randomises per interpreter: with random hash seeds one
#: sweep round ranged 1.06-1.21 instances/s.  Pinning it makes the work of
#: a run depend on --seed alone.
HASH_SEED = "0"


def pin_hash_seed():
    """Re-execute this interpreter with PYTHONHASHSEED pinned, if it is not.

    ``os.execv`` replaces the process, so no child is left to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])


def import_conespec():
    """Import conespec from ``src/`` under the working directory, only.

    Raises ImportError when the checkout holds no sources, so the benchmark
    never measures some other installed copy.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module("conespec")
    origin = os.path.abspath(module.__file__)
    if not origin.startswith(os.path.join(SRC, "conespec") + os.sep):
        raise ImportError(f"conespec imported from {origin}, not from {SRC}")
    importlib.import_module("conespec.cli")
    return module


@contextlib.contextmanager
def workdir():
    """A scratch directory under the checkout, removed afterwards."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def source_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "conespec", "*.py"))):
        with open(path, "r", encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "source_lines": source_lines()}
