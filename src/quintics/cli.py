"""Command-line interface: reproducible verification runs with JSON reports.

Every command prints one machine-readable JSON report (stable key order, no
timestamps) to stdout or ``--out``, plus a short human summary on stderr.
Exit codes: 0 when every check passes, 1 when a computed value disagrees with
its expected value, 2 on malformed input.  The file formats are imported by
the two commands that read a file, so ``dims`` and ``ledger`` never load them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional

from .errors import InputError, SamplingError
from .exactalg import PrimeField, parse_field
from .ledger import (
    AMBIENT_DIM,
    apply_differentials,
    dataset_quintic,
    quintic_poincare_pipeline,
    totalize,
)
from .lsys import _euler_relation, classify, linear_system_dim, singular_set_bruteforce
from .rng import derive_seed
from .sampling import sample_generic
from .taxonomy import GOLDEN_DIMS
from .twisted import BUILTIN_MODELS, betti_poly, homology, induced_map, poincare_dual


def _check(name: str, expected, computed) -> dict:
    return {
        "check": name,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
    }


def _finish(report: dict, out: Optional[str]) -> int:
    results = report.get("results", [])
    failed = [r for r in results if not r["pass"]]
    report["exit_code"] = 1 if failed else 0
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for r in results:
        tag = "PASS" if r["pass"] else "FAIL"
        sys.stderr.write(f"[{tag}] {r['check']}: expected {r['expected']}, "
                         f"computed {r['computed']}\n")
    sys.stderr.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return report["exit_code"]


def cmd_dims(args) -> int:
    field = parse_field(args.field)
    if args.type == "all":
        types = list(GOLDEN_DIMS)
    elif args.type.isdecimal() and int(args.type) in GOLDEN_DIMS:
        types = [int(args.type)]
    else:
        raise InputError("type must be 1..42 or 'all'")
    if args.seeds < 1:
        raise InputError(f"seeds must be at least 1, got {args.seeds}")
    # refused before any draw, so every type gives the same error
    _euler_relation(field, 5)
    results = []
    for t in types:
        for i in range(args.seeds):
            seed = derive_seed(args.seed, t, i)
            cfg = sample_generic(t, field, seed)
            computed = linear_system_dim(cfg)
            results.append(_check(f"type {t} seed-index {i}", GOLDEN_DIMS[t], computed))
    report = {
        "command": "dims",
        "inputs": {"type": args.type, "field": args.field,
                   "seeds": args.seeds, "seed": args.seed},
        "results": results,
    }
    return _finish(report, args.out)


def cmd_classify(args) -> int:
    from .formats import config_to_json, load_poly

    poly = load_poly(args.poly)
    p = args.prime
    field = PrimeField(p)
    if poly.field != field:
        poly = poly.reduce_to(field)
    sing = singular_set_bruteforce(poly, p)
    cfg = sing.as_config()
    results = []
    if sing.is_empty():
        verdict: object = "nonsingular"
    else:
        type_id = classify(cfg)
        verdict = type_id if type_id is not None else "none"
        if type_id is not None and poly.degree == 5:
            dim = linear_system_dim(cfg, poly.degree)
            results.append(_check(f"type {type_id} dimension", GOLDEN_DIMS[type_id], dim))
            results.append(_check(f"type {type_id} codimension",
                                  AMBIENT_DIM - GOLDEN_DIMS[type_id], AMBIENT_DIM - dim))
    report = {
        "command": "classify",
        "inputs": {"poly": args.poly, "prime": p},
        "singular_set": config_to_json(cfg),
        "classification": verdict,
        "results": results,
    }
    return _finish(report, args.out)


def cmd_ledger(args) -> int:
    data = dataset_quintic()
    results = []
    body: dict = {}
    if args.dataset == "quintic5":
        final, sigma, table = quintic_poincare_pipeline()
        expected = data.expected_poincare()
        results.append(_check("poincare polynomial", expected.format(), final.format()))
        body = {
            # the factored form is only claimed when the computed expansion
            # actually matches the stored factorization
            "factored": data.expected_factored() if final == expected else None,
            "expanded": final.format(),
            "discriminant_total": sigma.format(),
        }
        if args.emit == "tables":
            body["table"] = [[p, q, d] for (p, q), d in table.entries]
            body["column_totals"] = {
                str(p): table.column(p).format()
                for p in sorted({pq[0] for pq, _ in table.entries})
            }
    else:
        try:
            aux = data.aux(args.dataset)
        except InputError:
            raise InputError(f"unknown dataset {args.dataset!r}; known: quintic5, "
                             + ", ".join(t.name for t in data.aux_tables))
        after = apply_differentials(aux.table, aux.differentials)
        total = totalize(after)
        results.append(_check(f"{aux.name} total", aux.expected_total.format(),
                              total.format()))
        body = {
            "table": [[p, q, d] for (p, q), d in aux.table.entries],
            "after_differentials": [[p, q, d] for (p, q), d in after.entries],
            "total": total.format(),
            "note": aux.note,
        }
        if args.dataset == "col39-aux":
            body["conclusion"] = ("column 39 contributes 0"
                                  if after.is_empty() else "unexpected survivors")
            results.append(_check("page empties", True, after.is_empty()))
    report = {
        "command": "ledger",
        "inputs": {"dataset": args.dataset, "emit": args.emit},
        "results": results,
    }
    report.update(body)
    return _finish(report, args.out)


_MODEL_EXPECTATIONS = {
    # built-in model -> (dual polynomial, induced map per chain degree); None
    # checks the model against the ledger's twisted value of the same name.
    # Chain degree k corresponds to dual degree 2n - k; for the pair models
    # (n = 2) the +1 on H1 is the preserved dual-degree-3 class and the -1 on
    # H2 the flipped dual-degree-2 class.
    "pairs-a1": (None, {"H1": "1", "H2": "-1"}),
    "pairs-a2": (None, {}),
    "pairs-a3": (None, {"H1": "1", "H2": "-1"}),
    "punctured-line": ("t", {"H1": "-1"}),
}


def cmd_homology(args) -> int:
    if args.model in BUILTIN_MODELS:
        complex_, chain_map, cdim = BUILTIN_MODELS[args.model]()
    else:
        from .formats import load_model

        complex_, chain_map, cdim = load_model(args.model)
    betti = homology(complex_)
    poly = betti_poly(complex_)
    body = {
        "betti": betti,
        "poincare": poly.format(),
    }
    results = []
    dual = None
    if cdim is not None:
        dual = poincare_dual(poly, cdim)
        body["dual_poincare"] = dual.format()
    mats = induced_map(chain_map) if chain_map is not None else []
    if chain_map is not None:
        body["induced_map"] = [[[str(v) for v in row] for row in m] for m in mats]
    if args.model in _MODEL_EXPECTATIONS:
        exp_dual, exp_maps = _MODEL_EXPECTATIONS[args.model]
        if exp_dual is None:
            exp_dual = dataset_quintic().twisted_values[args.model].format()
        results.append(_check("dual poincare polynomial", exp_dual,
                              dual.format() if dual is not None else None))
        for name, want in exp_maps.items():
            k = int(name[1:])
            got = mats[k] if k < len(mats) else ()
            scalar = str(got[0][0]) if len(got) == 1 and len(got[0]) == 1 else None
            results.append(_check(f"induced map on {name}", want, scalar))
    report = {
        "command": "homology",
        "inputs": {"model": args.model},
        "results": results,
    }
    report.update(body)
    return _finish(report, args.out)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves
    it unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="quintics",
        description="Exact verification runs for the plane-quintic "
                    "singular-configuration ledger.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="golden dimension sweep over sampled "
                                         "configurations")
    p_dims.add_argument("--type", default="all", help="taxonomy type 1..42 or 'all'")
    p_dims.add_argument("--field", default="fp:65521", help="qq or fp:<prime>")
    p_dims.add_argument("--seeds", type=int, default=20, help="samples per type")
    p_dims.add_argument("--seed", type=int, default=0, help="base seed")
    p_dims.add_argument("--out", default=None, help="write the JSON report here")

    p_cls = sub.add_parser("classify", help="brute-force singular set of a "
                                            "polynomial file and classify it")
    p_cls.add_argument("--poly", required=True, help="polynomial JSON file")
    p_cls.add_argument("--prime", type=int, required=True)
    p_cls.add_argument("--out", default=None)

    p_led = sub.add_parser("ledger", help="run the stored table pipelines")
    p_led.add_argument("--dataset", default="quintic5",
                       help="quintic5, col38-base, col39-aux, col39-fiber")
    p_led.add_argument("--emit", choices=["poincare", "tables"], default="poincare")
    p_led.add_argument("--out", default=None)

    p_hom = sub.add_parser("homology", help="Betti numbers of a built-in or "
                                            "file-based chain model")
    p_hom.add_argument("--model", required=True,
                       help="built-in name (pairs-a1, pairs-a2, pairs-a3, "
                            "punctured-line) or a model JSON file")
    p_hom.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "dims": cmd_dims,
        "classify": cmd_classify,
        "ledger": cmd_ledger,
        "homology": cmd_homology,
    }
    try:
        return handlers[args.command](args)
    except (InputError, SamplingError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
