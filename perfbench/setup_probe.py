"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Times the import of the package, the warm-up of the lazy caches the workload
uses and the headline gate, then prints one JSON line with ``setup_s``, the
median reference-loop time around it (``reference_s``, to scale ``setup_s``
to the reference speed) and the gate's (label, expected, computed) triples.  Exits 1 when the gate fails and
2 when the program cannot be found.  ``run.py`` starts it several times.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import checkout
from reference import time_reference

REFERENCE_RUNS = 20


def main(argv) -> int:
    reference = [time_reference() for _ in range(REFERENCE_RUNS)]
    t0 = perf_counter()
    try:
        checkout.import_quintics()
    except checkout.MissingProgram as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    import workloads

    workloads.WORKLOADS[argv[0]].warm()
    gate = workloads.headline_gate()
    setup_s = perf_counter() - t0
    reference += [time_reference() for _ in range(REFERENCE_RUNS)]
    sys.stdout.write(json.dumps({"setup_s": setup_s,
                                 "reference_s": statistics.median(reference),
                                 "gate": gate}) + "\n")
    return 0 if all(want == got for _, want, got in gate) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
