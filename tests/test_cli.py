import json
from pathlib import Path

import pytest

from quintics.cli import main
from quintics.exactalg import PrimeField
from quintics.formats import (
    config_from_json,
    config_to_json,
    model_from_json,
    poly_from_json,
    poly_to_json,
    save_poly,
)
from quintics.lsys import HomogeneousPoly, line_poly
from quintics.projgeom import ProjLine
from quintics.sampling import sample_generic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_single_type(capsys):
    code, out, err = run(capsys, "dims", "--type", "4", "--field", "qq", "--seeds", "1")
    assert code == 0
    report = json.loads(out)
    assert report["exit_code"] == 0
    (result,) = report["results"]
    assert result["expected"] == 11 and result["computed"] == 11
    assert "PASS" in err


def test_dims_type42_no_matrix(capsys):
    code, out, _ = run(capsys, "dims", "--type", "42", "--seeds", "2")
    assert code == 0
    report = json.loads(out)
    assert all(r["computed"] == 0 for r in report["results"])


def test_dims_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "dims", "--type", "7", "--seeds", "3", "--seed", "5")
    _, out2, _ = run(capsys, "dims", "--type", "7", "--seeds", "3", "--seed", "5")
    assert out1 == out2


def test_dims_all_types_single_seed(capsys):
    code, out, _ = run(capsys, "dims", "--type", "all", "--seeds", "1")
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 42
    assert all(r["pass"] for r in report["results"])


def test_dims_over_a_prime_above_2_64(capsys):
    # every type, so that rows are packed and reduced at that size too: a
    # lone point of type 1 is a frame corner and builds no row
    code, out, _ = run(capsys, "dims", "--type", "all", "--field",
                       "fp:3317044064679887385961813", "--seeds", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 42
    assert all(r["pass"] for r in results)


def test_exit_code_one_on_mismatch(capsys, monkeypatch):
    import quintics.cli as cli_mod

    broken = dict(cli_mod.GOLDEN_DIMS)
    broken[4] = 99
    monkeypatch.setattr(cli_mod, "GOLDEN_DIMS", broken)
    code, out, err = run(capsys, "dims", "--type", "4", "--seeds", "1")
    assert code == 1
    assert json.loads(out)["exit_code"] == 1
    assert "FAIL" in err


def test_dims_bad_type_is_input_error(capsys):
    code, _, err = run(capsys, "dims", "--type", "77")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("type_arg", ["abc", "0", "43", "1.5"])
def test_dims_type_outside_the_table_is_refused(capsys, type_arg):
    code, out, err = run(capsys, "dims", "--type", type_arg, "--seeds", "1")
    assert code == 2 and out == ""
    assert err == "error: type must be 1..42 or 'all'\n"


@pytest.mark.parametrize("seeds", ["0", "-1"])
@pytest.mark.parametrize("type_arg", ["1", "all"])
def test_dims_refuses_fewer_than_one_seed_before_any_draw(capsys, monkeypatch, seeds, type_arg):
    import quintics.sampling as sampling_mod

    def no_draw(*args):
        raise AssertionError("--seeds below 1 must be refused before any draw")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draw)
    code, out, err = run(capsys, "dims", "--type", type_arg, "--seeds", seeds)
    assert code == 2 and out == ""
    assert err == f"error: seeds must be at least 1, got {seeds}\n"


@pytest.mark.parametrize("type_id", [24, 32, 33])
def test_dims_conic_types_refuse_characteristic_two(capsys, monkeypatch, type_id):
    import quintics.sampling as sampling_mod

    def no_draw(*args):
        raise AssertionError("a conic type over fp:2 must fail before any draw")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draw)
    code, out, err = run(capsys, "dims", "--type", str(type_id), "--field", "fp:2",
                         "--seeds", "1")
    assert code == 2 and out == ""
    assert "characteristic 2" in err


@pytest.mark.parametrize("type_id", [19, 24, 32, 34, 35, 37, 38, 39, 40])
def test_dims_refuses_types_that_gf3_cannot_hold_before_any_draw(capsys, monkeypatch, type_id):
    import quintics.sampling as sampling_mod

    def no_draw(*args):
        raise AssertionError(f"type {type_id} over fp:3 must fail before any draw")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draw)
    code, out, err = run(capsys, "dims", "--type", str(type_id), "--field", "fp:3",
                         "--seeds", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: type {type_id} needs ") and err.endswith(" over fp:3\n")


EULER_REFUSAL = ("error: fp:5 has characteristic 5, which divides the degree 5; "
                 "the Euler relation degenerates\n")


def test_dims_refuses_a_prime_dividing_the_degree(capsys):
    code, out, err = run(capsys, "dims", "--type", "1", "--field", "fp:5", "--seeds", "1")
    assert code == 2 and out == ""
    assert err == EULER_REFUSAL
    code, out, _ = run(capsys, "dims", "--type", "1", "--field", "fp:7", "--seeds", "1")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["expected"] == result["computed"] == 18


@pytest.mark.parametrize("type_arg", ["10", "all"])
def test_dims_refuses_the_characteristic_before_any_draw(capsys, monkeypatch, type_arg):
    import quintics.sampling as sampling_mod

    def no_draw(*args):
        raise AssertionError("fp:5 must be refused before any draw")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draw)
    code, out, err = run(capsys, "dims", "--type", type_arg, "--field", "fp:5",
                         "--seeds", "1")
    assert code == 2 and out == ""
    assert err == EULER_REFUSAL


def test_ledger_quintic5(capsys):
    code, out, _ = run(capsys, "ledger", "--dataset", "quintic5", "--emit", "poincare")
    assert code == 0
    report = json.loads(out)
    assert report["factored"] == "(1+t)(1+t^3)(1+t^5)"
    assert report["expanded"] == "1 + t + t^3 + t^4 + t^5 + t^6 + t^8 + t^9"


def test_ledger_tables_echo(capsys):
    code, out, _ = run(capsys, "ledger", "--dataset", "quintic5", "--emit", "tables")
    assert code == 0
    report = json.loads(out)
    assert [3, 29, 1] in report["table"]
    assert report["column_totals"]["1"] == "t^36 + t^38 + t^40"


def test_ledger_col39_empties(capsys):
    code, out, _ = run(capsys, "ledger", "--dataset", "col39-aux")
    assert code == 0
    report = json.loads(out)
    assert report["after_differentials"] == []
    assert report["conclusion"] == "column 39 contributes 0"


def test_ledger_unknown_dataset(capsys):
    code, _, err = run(capsys, "ledger", "--dataset", "nope")
    assert code == 2
    assert "unknown dataset" in err


@pytest.mark.parametrize("model,expected_dual", [
    ("pairs-a1", "t^2 + t^3"),
    ("pairs-a2", "0"),
    ("pairs-a3", "t^2 + t^3"),
])
def test_homology_builtin_models(capsys, model, expected_dual):
    code, out, _ = run(capsys, "homology", "--model", model)
    assert code == 0
    report = json.loads(out)
    assert report["dual_poincare"] == expected_dual


def test_pair_models_are_checked_against_the_ledger_values(capsys, monkeypatch):
    import quintics.cli as cli
    from quintics.ledger import QuinticDataset, dataset_quintic
    from quintics.poincare import PoincarePoly

    data = dataset_quintic()
    for model in ("pairs-a1", "pairs-a2", "pairs-a3"):
        code, out, _ = run(capsys, "homology", "--model", model)
        (dual,) = [r for r in json.loads(out)["results"] if r["check"] == "dual poincare polynomial"]
        assert code == 0 and dual["expected"] == data.twisted_values[model].format()
    # a ledger input that the model contradicts fails the model's check
    values = dict(data.twisted_values, **{"pairs-a2": PoincarePoly.one()})
    changed = QuinticDataset(data.e1, data.differentials, data.columns, data.aux_tables,
                             values, data.expected_factors, data.big_d)
    monkeypatch.setattr(cli, "dataset_quintic", lambda: changed)
    code, out, _ = run(capsys, "homology", "--model", "pairs-a2")
    assert code == 1
    (dual,) = [r for r in json.loads(out)["results"] if r["check"] == "dual poincare polynomial"]
    assert dual == {"check": "dual poincare polynomial", "expected": "1", "computed": "0",
                    "pass": False}


def test_homology_punctured_line(capsys):
    code, out, _ = run(capsys, "homology", "--model", "punctured-line")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [0, 1]
    assert report["induced_map"][1] == [["-1"]]


def test_homology_model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "vertices": ["v"],
        "edges": [["a", "v", "v"], ["b", "v", "v"]],
        "monodromy": {"a": "-1", "b": "-1"},
        "complex_dim": 1,
    }))
    code, out, _ = run(capsys, "homology", "--model", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [0, 1]
    assert report["dual_poincare"] == "t"


def test_homology_model_file_dd_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dims": [1, 1, 1],
        "boundaries": [[[1]], [[1]]],
    }))
    code, _, err = run(capsys, "homology", "--model", str(path))
    assert code == 2
    assert "boundary" in err


QUINTIC = {"field": "fp:101", "degree": 5, "terms": [{"exps": [5, 0, 0], "coeff": 1}]}


def _refused(tmp_path, capsys, data, *argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    return err


@pytest.mark.parametrize("command,data", [
    ("homology", {"vertices": ["v"], "edges": [["a", "v"]]}),
    ("homology", {"dims": [1, 1], "boundaries": [[["q"]]]}),
    ("homology", {"dims": [1], "boundaries": [], "map": [[["x"]]]}),
    ("homology", {"vertices": ["v"], "edges": [["a", "v", "v"]], "monodromy": {"a": "zz"}}),
    ("homology", {"dims": [1], "boundaries": [], "complex_dim": "x"}),
    ("classify", {**QUINTIC, "terms": [{"exps": [5, 0, 0], "coeff": "abc"}]}),
    ("classify", {**QUINTIC, "terms": [{"exps": [5, 0, 0], "coeff": "1/0"}]}),
    ("classify", {**QUINTIC, "degree": "five"}),
])
def test_malformed_files_exit_two(tmp_path, capsys, command, data):
    # a value that does not parse is a bad input (exit 2), not a failed check
    argv = (("homology", "--model") if command == "homology"
            else ("classify", "--prime", "101", "--poly"))
    err = _refused(tmp_path, capsys, data, *argv)
    kind = "model" if command == "homology" else "polynomial"
    assert err.startswith(f"error: malformed {kind} file: ")


@pytest.mark.parametrize("command,data,message", [
    ("homology", {"dims": [1], "boundaries": [], "map": [[[0.5]]]}, "floats are not exact"),
    ("homology", {"dims": [1], "boundaries": [], "complex_dim": 0.5}, "complex_dim must be an integer"),
    ("homology", {"dims": [1.0], "boundaries": []}, "cell counts must be nonnegative integers"),
    ("classify", {**QUINTIC, "degree": 5.7}, "degree must be an integer"),
    ("classify", {**QUINTIC, "terms": [{"exps": [5, 0, 0], "coeff": 1},
                                       {"exps": [5, 0, 0], "coeff": 2}]},
     "repeated exponent triple [5, 0, 0]"),
])
def test_floats_and_repeated_terms_are_refused(tmp_path, capsys, command, data, message):
    argv = (("homology", "--model") if command == "homology"
            else ("classify", "--prime", "101", "--poly"))
    assert message in _refused(tmp_path, capsys, data, *argv)


def test_classify_fermat(tmp_path, capsys):
    fp = PrimeField(11)
    poly = HomogeneousPoly(fp, 5, {(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1})
    path = tmp_path / "fermat.json"
    save_poly(poly, str(path))
    code, out, _ = run(capsys, "classify", "--poly", str(path), "--prime", "11")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "nonsingular"


def test_classify_two_double_lines(tmp_path, capsys):
    fp = PrimeField(11)
    poly = HomogeneousPoly(fp, 5, {(2, 2, 1): 1})
    path = tmp_path / "xxyyz.json"
    save_poly(poly, str(path))
    code, out, _ = run(capsys, "classify", "--poly", str(path), "--prime", "11")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == 31
    checks = {r["check"]: r for r in report["results"]}
    assert checks["type 31 dimension"]["computed"] == 3
    assert checks["type 31 codimension"]["computed"] == 18


def test_classify_line_times_nodal_cubic(tmp_path, capsys):
    fp = PrimeField(11)
    nodal = HomogeneousPoly(fp, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})
    ell = line_poly(ProjLine(fp, (0, 1, 1)))
    path = tmp_path / "l2nodal.json"
    save_poly(ell * ell * nodal, str(path))
    code, out, _ = run(capsys, "classify", "--poly", str(path), "--prime", "11")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == 17
    assert len(report["singular_set"]["lines"]) == 1
    assert len(report["singular_set"]["points"]) == 1


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["line_triangle", "double_conic", "six_on_conic", "two_lines",
                                  "slanted_lines", "apex_lines"])
def test_classify_report_matches_stored(name, capsys, monkeypatch):
    # line_triangle: a doubled line times a triangle with vertices (0:0:1),
    # (0:1:3) and one in the chart x = 1 (type 41); double_conic: a rational
    # doubled conic times a line, reduced to GF(101) (type 33); six_on_conic:
    # an integer member of a rational type 24 system, singular at six points
    # on a nondegenerate conic, which the classifier's six-point branch finds;
    # two_lines: x^2 y^2 (x + y + z), the doubled lines x = 0 and y = 0 with
    # no point off them (type 31); slanted_lines:
    # (x + 2y - z)^2 (3x - y + z)^2 (x + y + z), two doubled lines, neither
    # x = 0 nor through (0:0:1) (type 31); apex_lines:
    # x^2 (y - 3x)^2 (x + y + z), the doubled lines x = 0 and y = 3x, both
    # through (0:0:1) (type 31).  The three line forms hold every kind of
    # full line the sieve's line peel tells apart.
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "classify", "--poly", f"classify_{name}.json",
                       "--prime", "101")
    assert code == 0
    assert out == (DATA / f"classify_{name}.expected.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["line_triangle", "double_conic", "six_on_conic", "two_lines",
                                  "slanted_lines", "apex_lines"])
def test_classify_report_at_largest_prime_matches_stored(name, capsys, monkeypatch):
    # at MAX_BRUTEFORCE_PRIME = 251 the sieve's packed columns are at their
    # largest slot values; line_triangle reduces to a two-point form there
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "classify", "--poly", f"classify_{name}.json",
                       "--prime", "251")
    assert code == 0
    assert out == (DATA / f"classify_{name}_p251.expected.json").read_text(encoding="utf-8")


def test_classify_double_conic_at_p7_matches_stored(capsys, monkeypatch):
    # the doubled conic groups at p = 7, where p + 1 < 2 deg f
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "classify", "--poly", "classify_double_conic.json",
                       "--prime", "7")
    assert code == 0
    assert out == (DATA / "classify_double_conic_p7.expected.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["two_lines", "slanted_lines", "apex_lines"])
def test_classify_line_pair_at_p7_matches_stored(name, capsys, monkeypatch):
    # two doubled lines at p = 7, where a full line has only eight points
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "classify", "--poly", f"classify_{name}.json",
                       "--prime", "7")
    assert code == 0
    assert out == (DATA / f"classify_{name}_p7.expected.json").read_text(encoding="utf-8")


_DIMS_PINS = [
    ("all", "qq", "1", "dims_all_qq_seeds1"),
    ("all", "qq", "3", "dims_all_qq_seeds3"),
    ("all", "fp:101", "2", "dims_all_fp101_seeds2"),
    ("all", "fp:65521", "2", "dims_all_fp65521_seeds2"),
    ("all", "fp:11", "3", "dims_all_fp11_seeds3"),
    # a line with three points off it: over GF(3) the quotient has degree 3
    ("41", "fp:3", "3", "dims_type41_fp3_seeds3"),
]


@pytest.mark.parametrize("type_id,field,seeds,name", _DIMS_PINS,
                         ids=["-".join(pin[1:]) for pin in _DIMS_PINS])
def test_dims_report_matches_stored(type_id, field, seeds, name, capsys):
    code, out, _ = run(capsys, "dims", "--type", type_id, "--field", field, "--seeds", seeds)
    assert code == 0
    assert out == (DATA / f"{name}.expected.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,name", [
    (("ledger", "--dataset", "quintic5", "--emit", "tables"), "ledger_quintic5_tables"),
    (("ledger", "--dataset", "col39-aux"), "ledger_col39_aux"),
    (("homology", "--model", "pairs-a1"), "homology_pairs_a1"),
    (("homology", "--model", "pairs-a2"), "homology_pairs_a2"),
    (("homology", "--model", "pairs-a3"), "homology_pairs_a3"),
    (("homology", "--model", "punctured-line"), "homology_punctured_line"),
    (("ledger", "--dataset", "col38-base"), "ledger_col38_base"),
    (("ledger", "--dataset", "col39-fiber"), "ledger_col39_fiber"),
])
def test_ledger_and_homology_reports_match_stored(argv, name, capsys):
    # the homology reports run QQ rref and kernel through twisted homology
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"{name}.expected.json").read_text(encoding="utf-8")


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    # main builds the parser once per process; a rejected argv in between
    # must not change what the next calls parse
    from quintics.cli import build_parser

    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "ledger", "--dataset", "col39-aux")
    assert code == 0
    assert out == (DATA / "ledger_col39_aux.expected.json").read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["ledger", "--dataset", "col39-aux", "--emit", "csv"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    for argv, name in [(("homology", "--model", "pairs-a1"), "homology_pairs_a1"),
                       (("ledger", "--dataset", "quintic5", "--emit", "tables"),
                        "ledger_quintic5_tables")]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / f"{name}.expected.json").read_text(encoding="utf-8"), name


@pytest.mark.parametrize("name", ["torus", "gap"])
def test_homology_model_file_matches_stored(name, capsys, monkeypatch):
    # torus: two loops, a 2-cell with zero boundary and the loop swap (betti
    # [1, 2, 1]); gap: an empty chain group in dimension 1 (betti [1, 0, 1])
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "homology", "--model", f"homology_model_{name}.json")
    assert code == 0
    assert out == (DATA / f"homology_model_{name}.expected.json").read_text(encoding="utf-8")


def test_classify_rejects_degree_divisible_by_p(tmp_path, capsys):
    fp = PrimeField(7)
    # degree 5 over p = 5 is rejected before enumeration
    poly = HomogeneousPoly(PrimeField(5), 5, {(5, 0, 0): 1})
    path = tmp_path / "bad.json"
    save_poly(poly, str(path))
    code, out, err = run(capsys, "classify", "--poly", str(path), "--prime", "5")
    assert code == 2 and out == ""
    assert err == EULER_REFUSAL


def test_classify_refuses_zero_form_above_largest_prime(capsys, monkeypatch):
    # a form with no terms is refused at p = 257 like any other form
    monkeypatch.chdir(DATA)
    code, out, err = run(capsys, "classify", "--poly", "classify_zero.json", "--prime", "257")
    assert code == 2 and out == ""
    assert "use p <= 251" in err


def test_out_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "ledger", "--dataset", "quintic5", "--out", str(path))
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["exit_code"] == 0


# --- file format round trips ---------------------------------------------------

def test_config_roundtrip():
    cfg = sample_generic(23, PrimeField(65521), 9)
    data = config_to_json(cfg)
    back = config_from_json(data)
    assert back == cfg


def test_config_roundtrip_rational_with_components():
    from quintics.exactalg import QQ

    cfg = sample_generic(31, QQ, 2)
    assert config_from_json(config_to_json(cfg)) == cfg


@pytest.mark.parametrize("key, value", [
    ("whole_plane", "false"), ("whole_plane", 0), ("whole_plane", None),
    ("type_id", [1]), ("type_id", 0), ("type_id", 43), ("type_id", 4.0),
    ("type_id", True), ("type_id", "4"),
])
def test_config_fields_must_have_their_json_types(key, value):
    from quintics.errors import InputError
    from quintics.exactalg import QQ

    data = {"field": "qq", "points": [[1, 0, 0]], key: value}
    with pytest.raises(InputError, match="^malformed configuration file: "):
        config_from_json(data)
    cfg = config_from_json({"field": "qq", "whole_plane": True, "type_id": 42})
    assert (cfg.whole_plane, cfg.type_id, cfg.field) == (True, 42, QQ)
    assert config_from_json({"field": "qq"}).type_id == "untyped"


def test_poly_roundtrip():
    from quintics.exactalg import QQ

    poly = HomogeneousPoly(QQ, 3, {(1, 1, 1): "2/3", (3, 0, 0): -1})
    assert poly_from_json(poly_to_json(poly)) == poly


def test_model_explicit_matrices():
    complex_, chain_map, cdim = model_from_json({
        "dims": [1, 1],
        "boundaries": [[["-2"]]],
        "complex_dim": 1,
    })
    from quintics.twisted import homology

    assert homology(complex_) == [0, 0]
    assert chain_map is None and cdim == 1
