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


@pytest.mark.parametrize("name", ["line_triangle", "double_conic"])
def test_classify_report_matches_stored(name, capsys, monkeypatch):
    # line_triangle: a doubled line times a triangle with vertices (0:0:1),
    # (0:1:3) and one in the chart x = 1 (type 41); double_conic: a rational
    # doubled conic times a line, reduced to GF(101) (type 33)
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "classify", "--poly", f"classify_{name}.json",
                       "--prime", "101")
    assert code == 0
    assert out == (DATA / f"classify_{name}.expected.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("field,seeds,name", [
    ("qq", "1", "dims_all_qq_seeds1"),
    ("fp:101", "2", "dims_all_fp101_seeds2"),
])
def test_dims_report_matches_stored(field, seeds, name, capsys):
    code, out, _ = run(capsys, "dims", "--type", "all", "--field", field, "--seeds", seeds)
    assert code == 0
    assert out == (DATA / f"{name}.expected.json").read_text(encoding="utf-8")


def test_classify_rejects_degree_divisible_by_p(tmp_path, capsys):
    fp = PrimeField(7)
    # degree 5 over p = 5 is rejected before enumeration
    poly = HomogeneousPoly(PrimeField(5), 5, {(5, 0, 0): 1})
    path = tmp_path / "bad.json"
    save_poly(poly, str(path))
    code, out, err = run(capsys, "classify", "--poly", str(path), "--prime", "5")
    assert code == 2 and out == ""
    assert err == EULER_REFUSAL


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


def test_poly_roundtrip():
    from quintics.exactalg import QQ

    poly = HomogeneousPoly(QQ, 3, {(1, 1, 1): "2/3", (3, 0, 0): -1})
    assert poly_from_json(poly_to_json(poly)) == poly


def test_table_format_roundtrip():
    from quintics.formats import table_from_json, table_to_json
    from quintics.ledger import dataset_quintic

    data = dataset_quintic()
    aux = data.aux("col39-aux")
    payload = table_to_json(aux.table, aux.differentials, data.columns[:3])
    table, decls, columns = table_from_json(payload)
    assert table == aux.table
    assert decls == aux.differentials
    assert columns == data.columns[:3]


def test_model_explicit_matrices():
    complex_, chain_map, cdim = model_from_json({
        "dims": [1, 1],
        "boundaries": [[["-2"]]],
        "complex_dim": 1,
    })
    from quintics.twisted import homology

    assert homology(complex_) == [0, 0]
    assert chain_map is None and cdim == 1
