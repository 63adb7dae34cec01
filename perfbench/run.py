"""The quintics benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload dims-fp --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  Every workload is a closed loop in one
process and one thread: each check starts only after the previous one has
returned.  A run builds its cases from ``--seed``, then runs whole passes
over the cases until ``--seconds`` of passes have elapsed, and at least
three.  Every check is
verified exactly; an exception counts as a failed check.

Between checks the runner times a fixed reference loop (``reference.py``) and
scales each check time to the reference machine speed.  A check's time is the
median over its repetitions, one per timed pass.

``--trace 0`` reports the end-to-end metrics.  Set-up time is measured in
fresh interpreters (import, cache warm-up and the headline gate) spread
between the passes, and reported as the median.

``--trace 1`` alternates untraced and traced passes.  Per-layer metrics cover
one traced set-up plus one traced pass; self times are the smallest over the
traced passes.  The spans of the first traced pass are written to
``.perfbench_out/<workload>.spans.jsonl.gz``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import checkout
from reference import REFERENCE_S, time_reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
PLANTED = "planted wrong value"

# Per-layer metrics: '<module>.<function>.calls' and '.self_s' for these.
REPORTED_FUNCTIONS = (
    "exactalg.kernel", "exactalg.intersect", "exactalg.rank", "exactalg.row_space",
    "lsys.constraint_matrix", "lsys.divisibility_subspace", "lsys.linear_system_dim",
    "lsys.linear_system_basis",
    "sampling.sample_generic", "projgeom.collinear", "projgeom.points_on_line_basis",
    "projgeom.line_through", "projgeom.incident", "projgeom.conic_through",
    "lsys.classify_points", "lsys.classify", "lsys.check_conditions",
    "lsys.singular_points_bruteforce", "lsys.singular_set_bruteforce",
    "ledger.apply_differentials", "ledger.totalize", "ledger.alexander_dualize",
    "twisted.homology", "twisted.induced_map",
)
# Counts made by the workloads themselves, and one made at a span boundary.
REPORTED_COUNTS = ("exactalg.kernel.entries", "lsys.subset_checks",
                   "oracle.type_exact", "oracle.type_closure", "oracle.type_other")


class Pass:
    """One pass over the cases: results in the CLI's report format, raw check
    seconds, reference-loop seconds around them, and workload counts."""

    def __init__(self):
        self.results: list = []
        self.latencies: list = []
        self.reference = [time_reference()]
        self.counts: Counter = Counter()
        self.wall_s = 0.0

    def scaled(self) -> list:
        """Check seconds at the reference speed: each check is scaled by the
        mean of the reference times just before and just after it."""
        ref = self.reference
        return [t * 2 * REFERENCE_S / (ref[i] + ref[i + 1])
                for i, t in enumerate(self.latencies)]

    def speed(self) -> float:
        """Reference time over the median reference-loop time of the pass."""
        return REFERENCE_S / statistics.median(self.reference)


class Run:
    """Checks and failures of one benchmark run."""

    def __init__(self, workload, seed: int, plant: bool):
        self.workload = workload
        self.seed = seed
        self.plant = plant
        self.attempted = 0
        self.failures: list = []

    def verify(self, label: str, want, got) -> bool:
        self.attempted += 1
        ok = want == got
        if not ok:
            self.failures.append({"check": label, "expected": want, "computed": got})
            if len(self.failures) <= 5:
                sys.stderr.write(f"FAIL {label}: expected {want!r}, computed {got!r}\n")
        return ok

    def run_pass(self, cases: list, tracer=None) -> Pass:
        wl = self.workload
        p = Pass()
        t_pass = perf_counter()
        for idx, case in enumerate(cases):
            if tracer is not None:
                tracer.check = idx
            t0 = perf_counter()
            try:
                want, got = wl.check(case, p.counts)
            except Exception as exc:  # a raised error is a failed check, not a crash
                if len(self.failures) < 5:
                    traceback.print_exc()
                want, got = "no exception", f"{type(exc).__name__}: {exc}"
            p.latencies.append(perf_counter() - t0)
            p.reference.append(time_reference())
            if self.plant and idx == 0:
                want = PLANTED
            label = wl.label(case)
            p.results.append({"check": label, "expected": want, "computed": got,
                              "pass": self.verify(label, want, got)})
        p.wall_s = perf_counter() - t_pass
        return p

    def gate(self, checks: list) -> None:
        for label, want, got in checks:
            self.verify(label, want, got)

    def probe_setup(self):
        """Set-up seconds of one fresh interpreter at the reference speed,
        or None when the probe failed; the probe's gate is verified."""
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               self.workload.name],
                              cwd=checkout.ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            probe = json.loads(lines[-1])
        except (IndexError, ValueError):
            self.verify("set-up probe", {"exit_code": 0, "result": True},
                        {"exit_code": proc.returncode, "result": False,
                         "stderr": proc.stderr[-2000:]})
            return None
        self.gate(probe["gate"])
        return probe["setup_s"] * REFERENCE_S / probe["reference_s"]


def end_to_end(wl, run: Run, cases: list, seconds: int) -> tuple:
    wl.warm()
    # The CLI run on the same inputs also warms the interpreter.
    try:
        cli = wl.cli_results(run.seed, checkout.OUT_DIR)
    except Exception as exc:  # a failing CLI fails the cross-check below
        traceback.print_exc()
        cli = (f"{type(exc).__name__}: {exc}", None)
    # Set-up probes are spread between the timed passes.
    setup: list = []
    passes: list = []
    while len(passes) < MIN_PASSES or sum(p.wall_s for p in passes) < seconds:
        if len(setup) < SETUP_PROBES:
            setup.append(run.probe_setup())
        passes.append(run.run_pass(cases))
    while len(setup) < SETUP_PROBES:
        setup.append(run.probe_setup())
    if cli is not None:
        run.verify(f"cli {wl.name} cross-check", {"exit_code": 0, "results_equal": True},
                   {"exit_code": cli[0], "results_equal": cli[1] == passes[0].results})
    setup = [s for s in setup if s is not None]
    # A check's time is the median over its repetitions, one per pass.
    scaled = [statistics.median(ts) for ts in zip(*(p.scaled() for p in passes))]
    raw = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    p90 = statistics.quantiles(scaled, n=10)[8]
    metrics = {
        "checks_per_s": (len(scaled) / sum(scaled), "1/s"),
        "check_ms.p50": (statistics.median(scaled) * 1e3, "ms"),
        "check_ms.p90": (p90 * 1e3, "ms"),
        # 0 only when every probe failed, which fails the run.
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "latency_samples": len(scaled),
        "samples_beyond_p90": sum(1 for t in scaled if t > p90),
        "repetitions_per_check": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_speed": [p.speed() for p in passes],
        "unscaled_checks_per_s": len(raw) / sum(raw),
        "unscaled_check_ms.p50": statistics.median(raw) * 1e3,
        "unscaled_check_ms.p90": statistics.quantiles(raw, n=10)[8] * 1e3,
        "setup_probes_s": setup,
    }
    return metrics, details


def traced(wl, run: Run, cases: list, seconds: int) -> tuple:
    import workloads

    tracer = Tracer()
    tracer.install()
    tracer.enable()
    wl.warm()
    run.gate(workloads.headline_gate())
    setup_calls, setup_self, _ = tracer.summarize()
    setup_speed = REFERENCE_S / statistics.median(time_reference() for _ in range(20))
    setup_counts = Counter(tracer.counters)
    tracer.clear()
    tracer.disable()

    untraced_s = traced_s = 0.0
    wall = 0.0
    coverage: list = []
    self_by_pass: list = []
    first = None
    spans_written = 0
    spans_path = checkout.OUT_DIR / f"{wl.name}.spans.jsonl.gz"
    while wall < seconds:
        p = run.run_pass(cases)
        untraced_s += sum(p.scaled())
        wall += p.wall_s
        tracer.clear()
        tracer.enable()
        origin = perf_counter()
        p = run.run_pass(cases, tracer)
        tracer.disable()
        traced_s += sum(p.scaled())
        wall += p.wall_s
        calls, self_s, top = tracer.summarize()
        coverage.append(top / sum(p.latencies))
        speed = p.speed()
        self_by_pass.append({fn: s * speed for fn, s in self_s.items()})
        pass_counts = (calls, p.counts + tracer.counters)
        if first is None:
            first = pass_counts
            spans_written = tracer.write_spans(
                spans_path, origin, {"workload": wl.name, "seed": run.seed,
                                     "checks": [wl.label(c) for c in cases]})
        else:
            run.verify("traced passes make identical calls", first, pass_counts)
    tracer.clear()

    calls, counts = first
    metrics = {}
    for fn in REPORTED_FUNCTIONS:
        metrics[f"{fn}.calls"] = (setup_calls[fn] + calls[fn], "count")
        self_s = min(p.get(fn, 0.0) for p in self_by_pass)
        metrics[f"{fn}.self_s"] = (setup_self[fn] * setup_speed + self_s, "s")
    for name in REPORTED_COUNTS:
        metrics[name] = (setup_counts[name] + counts[name], "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    details = {
        "traced_passes": len(coverage),
        "coverage_by_pass": coverage,
        "spans_file": str(spans_path.relative_to(checkout.ROOT)),
        "spans_written": spans_written,
    }
    return metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="minimum measured time; whole passes run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-failure", action="store_true",
                        help="replace the expected value of the first check of every "
                             "pass by a wrong one (used by the self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        checkout.import_quintics()
    except checkout.MissingProgram as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; known: "
                         + ", ".join(workloads.WORKLOADS) + "\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    checkout.OUT_DIR.mkdir(exist_ok=True)
    run = Run(wl, args.seed, args.plant_failure)
    cases = wl.cases(args.seed)
    measure = traced if args.trace else end_to_end
    metrics, details = measure(wl, run, cases, args.seconds)

    failed = len(run.failures)
    summary = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {
        "stamp": checkout.stamp(wl.name, args.seed, bool(args.trace),
                                {"checks_per_pass": len(cases),
                                 "attempted": run.attempted, "failed": failed}),
        "fail_ratio": failed / run.attempted,
        "details": details,
        "failures": run.failures[:20],
        **summary,
    }
    out = checkout.OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=repr) + "\n", encoding="utf-8")
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
