"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

From the root of a checkout, it checks that:

1. a planted wrong expected value is caught on every workload: the run exits
   non-zero, reports ``correct: false`` and ``failed > 0``, and its result
   file has ``fail_ratio > 0``;
2. two traced runs on one seed give identical ``.calls`` counts and identical
   work counts (``exactalg.kernel.entries``, ``lsys.subset_checks``,
   ``oracle.type_*``);
3. the metric names printed with ``--trace 0`` and ``--trace 1`` are exactly
   the ``end_to_end`` and ``per_layer`` names of ``BENCHMARK.json``;
4. in a directory that holds only ``BENCHMARK.json`` and the benchmark's own
   files, the benchmark exits non-zero without printing a result.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
SEED = 7
TIMEOUT_S = 300


def _run(args: list, cwd: Path) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def planted(workload: str) -> tuple:
    """Run with a planted wrong expected value; returns (ok, detail, metric names)."""
    code, last = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                       "--trace", "0", "--plant-failure"], checkout.ROOT)
    if last is None:
        return False, f"exit {code}, no result line", set()
    result = checkout.OUT_DIR / f"{workload}-seed{SEED}-trace0.json"
    ratio = json.loads(result.read_text(encoding="utf-8"))["fail_ratio"]
    ok = code != 0 and last["correct"] is False and last["failed"] > 0 and ratio > 0
    return ok, f"exit {code}, failed {last['failed']}, fail_ratio {ratio:.4f}", \
        set(last["metrics"])


def _counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name.endswith(".entries")
            or name == "lsys.subset_checks" or name.startswith("oracle.type_")}


def traced_counts_repeat(workload: str) -> tuple:
    """Two traced runs on one seed; returns (ok, detail, metric names)."""
    runs = [_run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", "1"], checkout.ROOT) for _ in range(2)]
    if any(code != 0 or last is None for code, last in runs):
        return False, f"exit codes {[code for code, _ in runs]}", set()
    first, second = (_counts(last["metrics"]) for _, last in runs)
    differing = sorted(k for k in first if first[k] != second.get(k))
    return not differing, f"{len(first)} counts, differing: {differing or 'none'}", \
        set(runs[0][1]["metrics"])


def bare_directory_fails() -> tuple:
    bare = checkout.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(checkout.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, last = _run(["--workload", "dims-fp", "--seed", str(SEED), "--seconds", "1",
                           "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return code != 0 and last is None, f"exit {code}, result line {last is not None}"


def main() -> int:
    checkout.OUT_DIR.mkdir(exist_ok=True)
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {"end-to-end": {m["name"] for m in bench["end_to_end"]},
                "per-layer": {m["name"] for m in bench["per_layer"]}}
    failed = 0

    def report(ok: bool, label: str, detail: str) -> None:
        nonlocal failed
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)

    for kind, test in (("end-to-end", planted), ("per-layer", traced_counts_repeat)):
        for w in (w["name"] for w in bench["workloads"]):
            ok, detail, names = test(w)
            report(ok, f"{test.__name__} on {w}", detail)
            report(names == declared[kind], f"{kind} metric names on {w}",
                   f"missing {sorted(declared[kind] - names)}, "
                   f"undeclared {sorted(names - declared[kind])}")
    ok, detail = bare_directory_fails()
    report(ok, "bare directory exits non-zero without a result", detail)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
