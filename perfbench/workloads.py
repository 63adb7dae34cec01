"""The four verification workloads: inputs from a seed, one exact check per input.

A workload is a fixed list of cases built from the workload seed before any
timing starts.  ``check`` runs one case through the program and returns the
expected and the computed answer; the runner compares them.  Every program
function is called through its module attribute (``lsys.linear_system_dim``),
which is where the tracer patches it.

Import this module only after ``checkout.import_quintics()``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from quintics import cli, exactalg, lsys, projgeom, sampling
from quintics.rng import SplitMix64, derive_seed

import expected as exp

FP_BIG = exactalg.PrimeField(65521)
FP_SMALL = exactalg.PrimeField(101)

# Stream index for the oracle's random linear-system members, disjoint from
# the (type, sample-index) streams the sampler derives from the same seed.
_MEMBER_STREAM = 0x6F7261636C65


class DimsSweep:
    """The ``quintics dims`` sweep: every type, ``seeds_per_type`` samples each,
    seeded exactly as the CLI seeds it, through sample_generic and
    linear_system_dim."""

    def __init__(self, name: str, field_spec: str, seeds_per_type: int):
        self.name = name
        self.field_spec = field_spec
        self.field = exactalg.parse_field(field_spec)
        self.seeds_per_type = seeds_per_type

    def cases(self, seed: int) -> list:
        return [(t, i, derive_seed(seed, t, i))
                for t in range(1, 43) for i in range(self.seeds_per_type)]

    def label(self, case) -> str:
        t, i, _ = case
        return f"type {t} seed-index {i}"

    def check(self, case, counts) -> tuple:
        t, _, s = case
        cfg = sampling.sample_generic(t, self.field, s)
        return exp.GOLDEN_DIMS[t], lsys.linear_system_dim(cfg)

    def warm(self) -> None:
        _warm_monomials()

    def cli_results(self, seed: int, out_dir: Path) -> tuple:
        """Run ``quintics dims`` in-process on the same inputs; returns its
        exit code and its results list (None when it wrote no report)."""
        out = out_dir / f"cli-{self.name}-seed{seed}.json"
        out.unlink(missing_ok=True)
        argv = ["dims", "--type", "all", "--field", self.field_spec,
                "--seeds", str(self.seeds_per_type), "--seed", str(seed),
                "--out", str(out)]
        with redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if not out.is_file():
            return code, None
        return code, json.loads(out.read_text(encoding="utf-8")).get("results")


class Taxonomy:
    """check_conditions on one GF(65521) sample of a finite type per check."""

    name = "taxonomy"

    def __init__(self, samples_per_type: int):
        self.samples_per_type = samples_per_type

    def cases(self, seed: int) -> list:
        return [(t, i, sampling.sample_generic(t, FP_BIG, derive_seed(seed, t, i)))
                for t in sorted(exp.FINITE_POINTS) for i in range(self.samples_per_type)]

    def label(self, case) -> str:
        t, i, _ = case
        return f"type {t} sample {i} conditions"

    def check(self, case, counts) -> tuple:
        t, _, cfg = case
        report = lsys.check_conditions([cfg])
        counts["lsys.subset_checks"] += report.subset_checks
        want = {"checked": 1, "subset_checks": 2 ** exp.FINITE_POINTS[t] - 2,
                "violations": 0}
        got = {"checked": report.checked, "subset_checks": report.subset_checks,
               "violations": len(report.violations)}
        return want, got

    def warm(self) -> None:
        _warm_monomials()

    def cli_results(self, seed, out_dir):
        return None


class Oracle:
    """The form-level route over GF(101): sample, take the linear system's
    basis, draw a nonzero random member, brute-force its singular set and
    classify it."""

    name = "oracle-fp101"
    p = 101

    def __init__(self, samples_per_type: int):
        self.samples_per_type = samples_per_type

    def cases(self, seed: int) -> list:
        # Type 42 is left out: the zero form is its only member.
        return [(t, i, derive_seed(seed, t, i), derive_seed(seed, _MEMBER_STREAM, t, i))
                for t in range(1, 42) for i in range(self.samples_per_type)]

    def label(self, case) -> str:
        t, i, _, _ = case
        return f"type {t} sample {i} oracle"

    def check(self, case, counts) -> tuple:
        t, _, s, member_seed = case
        cfg = sampling.sample_generic(t, FP_SMALL, s)
        basis = lsys.linear_system_basis(cfg)
        form = self._random_member(basis, SplitMix64(member_seed))
        sing = lsys.singular_set_bruteforce(form, self.p)
        got_type = lsys.classify(sing)
        if got_type == t:
            counts["oracle.type_exact"] += 1
        elif got_type == exp.ORACLE_CLOSURE.get(t):
            counts["oracle.type_closure"] += 1
        else:
            counts["oracle.type_other"] += 1
        want = {"dim": exp.GOLDEN_DIMS[t], "config_in_singular_set": True}
        got = {"dim": basis.dim, "config_in_singular_set": _contains(sing, cfg)}
        return want, got

    def _random_member(self, basis, rng: SplitMix64):
        p = self.p
        if not basis.basis:
            raise ValueError("the linear system has no nonzero member")
        while True:
            vec = [0] * basis.ambient_dim
            for row in basis.basis:
                c = rng.below(p)
                vec = [(v + c * r) % p for v, r in zip(vec, row)]
            if any(vec):
                return lsys.HomogeneousPoly.from_vector(FP_SMALL, 5, vec)

    def warm(self) -> None:
        """Fill the GF(101) point and monomial tables through one public call."""
        _warm_monomials()
        fermat = lsys.HomogeneousPoly(FP_SMALL, 5, {(5, 0, 0): 1, (0, 5, 0): 1,
                                                     (0, 0, 5): 1})
        lsys.singular_points_bruteforce(fermat, self.p)

    def cli_results(self, seed, out_dir):
        return None


def _warm_monomials() -> None:
    for d in range(6):
        lsys.monomial_basis(d)


def _contains(sing, cfg) -> bool:
    """Every configured point, line and conic lies in the singular set."""
    if not set(cfg.lines) <= set(sing.line_components):
        return False
    if not set(cfg.conics) <= set(sing.conic_components):
        return False
    isolated = set(sing.isolated_points)
    return all(q in isolated
               or any(projgeom.incident(q, ln) for ln in sing.line_components)
               or any(c.contains(q) for c in sing.conic_components)
               for q in cfg.points)


# Sizes give every workload more than 100 checks, so that at least ten lie
# beyond p90, in a pass short enough to repeat at least three times in a run.
WORKLOADS = {w.name: w for w in (
    DimsSweep("dims-fp", "fp:65521", 5),
    DimsSweep("dims-qq", "qq", 3),
    Taxonomy(4),
    Oracle(3),
)}


def headline_gate() -> list:
    """The paper's headline, run through the CLI: the factored Poincaré
    polynomial, column 39 emptying and the four built-in homology models.

    Returns (label, expected, computed) triples.
    """
    out = []
    code, report = _cli_report(["ledger", "--dataset", "quintic5"])
    out.append(("ledger quintic5", {"exit_code": 0, "factored": exp.HEADLINE_FACTORED},
                {"exit_code": code, "factored": report.get("factored")}))
    code, report = _cli_report(["ledger", "--dataset", "col39-aux"])
    out.append(("ledger col39-aux", {"exit_code": 0, "conclusion": exp.COL39_CONCLUSION},
                {"exit_code": code, "conclusion": report.get("conclusion")}))
    for model in exp.HOMOLOGY_MODELS:
        code, report = _cli_report(["homology", "--model", model])
        checks = report.get("results", [])
        out.append((f"homology {model}", {"exit_code": 0, "all_pass": True},
                    {"exit_code": code,
                     "all_pass": bool(checks) and all(r["pass"] for r in checks)}))
    return out


def _cli_report(argv: list) -> tuple:
    stdout = io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails the gate check, it does not stop the run
        return f"{type(exc).__name__}: {exc}", {}
    text = stdout.getvalue()
    return code, (json.loads(text) if text.strip() else {})
