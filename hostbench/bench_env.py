"""Environment control, provenance and host measurements for the benchmark.

Everything the benchmark writes goes under ``<checkout>/.bench_build``:
the compiled C kernel cache, temporary result caches and span files.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

#: the checkout the benchmark runs from (the parent of its own directory)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
KERNEL_CACHE = WORK / "kernel"

#: the only ``REPRO_*`` variable set during a run; every other one is
#: cleared, since they change the program under test
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

_KERNEL_PROBE = (
    "import sys\n"
    "from repro.flitsim._kernel import load_kernel\n"
    "sys.exit(0 if load_kernel() is not None else 1)\n"
)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def prepare() -> list:
    """Clear every ``REPRO_*`` knob, confine temp files to the checkout.

    Returns the names of the cleared variables for the provenance record.
    Must run before the program under test is imported.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ[KERNEL_CACHE_ENV] = str(KERNEL_CACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cleared


def warm_kernel(timeout_s: float = 600.0) -> bool:
    """Build the C kernel into the checkout's cache in a child process.

    Compiling in a child keeps the compiler out of this process; the
    first ``load_kernel`` here then only imports the cached module.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE], cwd=ROOT, env=env,
            timeout=timeout_s, stdout=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def source_digest() -> str:
    """sha256 over the program's source files (path and content)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c", ".h") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> "str | None":
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(workers: int, kernel_loaded: bool, cleared: list) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "kernel_loaded": kernel_loaded,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cleared_env": cleared,
    }


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's live child processes.

    Read from ``/proc`` while the sweep's workers are still alive, so the
    kernel-compiling child of :func:`warm_kernel` never counts.
    """
    peak = 0
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return 0.0
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids = fh.read().split()
        except OSError:
            continue
        for pid in pids:
            peak = max(peak, _vm_hwm_kb(pid))
    return peak / 1024.0
