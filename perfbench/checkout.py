"""Where the benchmark finds the program, where it writes, and how it stamps results.

The benchmark runs from the root of a checkout of the repository and imports
the package from ``src/`` of that checkout, never from an installed copy.  All
output goes to ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "quintics"
OUT_DIR = ROOT / ".perfbench_out"

# Seeds below 1000 are for tuning and routine runs.  This seed is kept out of
# tuning, so that a claimed gain can be rechecked on inputs it was not tuned
# on: ``python3 perfbench/run.py --workload <name> --seed 900001 ...``.
HELDOUT_SEED = 900001


class MissingProgram(Exception):
    """The checkout does not hold the package source the benchmark measures."""


def import_quintics():
    """Import ``quintics`` from this checkout's ``src/`` and return the package."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"{init.relative_to(ROOT)} not found: run the "
                             "benchmark from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quintics

    if Path(quintics.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported quintics from {quintics.__file__}, "
                             f"not from {init}")
    return quintics


def git_revision() -> str:
    """HEAD of the checkout read from ``.git`` without running git, or 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, trace: bool, check_counts: dict) -> dict:
    """Provenance recorded in every result file."""
    return {
        "workload": workload,
        "seed": seed,
        "seed_role": "heldout" if seed == HELDOUT_SEED else "tuning",
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "check_counts": check_counts,
    }
