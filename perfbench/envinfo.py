"""The environment block recorded with every run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional

#: Set before numpy loads, in the benchmark and in every process it
#: starts: one OpenBLAS thread.  With the default two threads on a
#: 2-core machine the s2 recursion spread over runs grows from ~5% to
#: ~20% (README.md).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _openblas_libraries() -> List[Dict[str, object]]:
    """Each loaded OpenBLAS: file name, build string and thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
            )
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info: Dict[str, object] = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if cfg is not None and threads is not None:
                    cfg.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["config"] = cfg().decode().strip()
                    info["threads"] = threads()
                    break
            if "config" in info:
                break
        out.append(info)
    return out


def _git_revision(root: Path) -> Optional[str]:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's sources, a revision that needs no git."""
    h = hashlib.sha256()
    for path in sorted((src / "kmeoc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor has taken from this machine, all CPUs.

    A run whose figures stand out can be told apart by how much this
    grew while it ran (in the run record, not a metric).
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root / "src"),
    }
