"""End-to-end command line runs, in process via main(argv)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import maxram
from maxram import Baton, validate_certificate
from maxram.cli import main
from maxram.io import dump_json, matrix_to_obj, read_json, write_json

F = Fraction

B1 = Baton.unit(1).as_metric_space()
B2 = Baton.unit(2).as_metric_space()


@pytest.fixture()
def b2_metric(tmp_path):
    path = tmp_path / "b2.json"
    write_json(path, {"distance_matrix": matrix_to_obj(B2)})
    return str(path)


@pytest.fixture()
def half_pair_metric(tmp_path):
    path = tmp_path / "half.json"
    write_json(path, {"distance_matrix": [["0", "3/2"], ["3/2", "0"]]})
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- embed ---------------------------------------------------------------


def test_embed_writes_a_validating_certificate(capsys, b2_metric):
    code, obj = run_json(capsys, ["embed", "--metric", b2_metric])
    assert code == 0
    assert obj["kind"] == "copy_embedding"
    assert validate_certificate(obj).ok


def test_embed_output_flag_writes_the_file_instead(tmp_path, capsys, b2_metric):
    out = tmp_path / "emb.json"
    code = main(["embed", "--metric", b2_metric, "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert validate_certificate(str(out)).ok


def test_missing_metric_file_is_exit_2(capsys):
    assert main(["embed", "--metric", "/nonexistent.json"]) == 2
    assert "error" in capsys.readouterr().err


# -- copies ---------------------------------------------------------------


def test_copies_counts_and_validates(tmp_path, capsys, b2_metric):
    pts = tmp_path / "pts.json"
    write_json(pts, {"points": [["0"], ["1"], ["2"], ["3"]]})
    b1 = tmp_path / "b1.json"
    write_json(b1, {"distance_matrix": matrix_to_obj(B1)})
    code, obj = run_json(
        capsys,
        ["copies", "--metric", str(b1), "--points", str(pts), "--distinct-supports"],
    )
    assert code == 0
    assert obj["count"] == 3
    assert obj["distinct_supports"] is True
    assert validate_certificate(obj).ok

    code, limited = run_json(
        capsys, ["copies", "--metric", str(b1), "--points", str(pts), "--limit", "1"]
    )
    assert code == 0 and limited["count"] == 1


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_copies_limit_below_one_is_exit_2(tmp_path, capsys, b2_metric, limit):
    pts = tmp_path / "pts.json"
    write_json(pts, {"points": [["0"], ["1"], ["2"]]})
    argv = ["copies", "--metric", b2_metric, "--points", str(pts), "--limit", limit]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: limit must be positive\n"
    assert captured.out == ""


# -- extract ---------------------------------------------------------------


def test_extract_unit_baton_from_a_subset_file(tmp_path, capsys):
    subset = tmp_path / "subset.json"
    write_json(
        subset,
        {"k": 2, "n": 2, "elements": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2]]},
    )
    code, obj = run_json(capsys, ["extract", "--subset", str(subset)])
    assert code == 0
    assert obj["kind"] == "copy_embedding"
    assert len(obj["points"]) == 3
    assert validate_certificate(obj).ok


def test_extract_k_mismatch_and_malformed_subset(tmp_path, capsys):
    subset = tmp_path / "subset.json"
    write_json(subset, {"k": 1, "n": 1, "elements": [[0], [1]]})
    assert main(["extract", "--subset", str(subset), "--k", "3"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    write_json(bad, {"k": 1, "elements": []})
    assert main(["extract", "--subset", str(bad)]) == 2


def test_extract_string_grid_side_is_exit_2(tmp_path, capsys):
    subset = tmp_path / "subset.json"
    write_json(subset, {"k": "2", "n": 1, "elements": [[0], [1], [2]]})
    assert main(["extract", "--subset", str(subset)]) == 2
    assert "error: subset file: k and n must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("elements", [[1, 2], "ab", [[0], [True]], [[0], [0.5]]])
def test_extract_non_integer_list_elements_are_exit_2(tmp_path, capsys, elements):
    subset = tmp_path / "subset.json"
    write_json(subset, {"k": 2, "n": 1, "elements": elements})
    assert main(["extract", "--subset", str(subset)]) == 2
    err = capsys.readouterr().err
    assert "error: subset file: elements must be a list of integer lists" in err


def test_extract_with_a_baton_goes_through_anchors(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    write_json(pts, {"points": [["0"], ["1"], ["2"], ["3"]]})
    code, obj = run_json(
        capsys, ["extract", "--subset", str(pts), "--baton", "1,2"]
    )
    assert code == 0
    assert obj["points"] == [["0"], ["1"], ["3"]]
    assert validate_certificate(obj).ok


# -- anchors ---------------------------------------------------------------


def test_anchors_faithful_run_reports_to_stderr(tmp_path, capsys):
    out = tmp_path / "anchor.json"
    code = main(["anchors", "--steps", "1,3/2", "--faithful", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 0
    assert "m=70 q=28" in err
    assert validate_certificate(str(out)).ok


def test_anchors_fast_path_to_stdout(capsys):
    code, obj = run_json(capsys, ["anchors", "--steps", "2,3"])
    assert code == 0
    assert obj["q"] == 1 and obj["p"] == [2, 3]
    assert validate_certificate(obj).ok


def test_anchors_artifacts_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["anchors", "--steps", "1,3/2", "-o", str(a)]) == 0
    assert main(["anchors", "--steps", "1,3/2", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_anchors_verifies_the_sequence_once(monkeypatch, tmp_path, capsys):
    calls = []
    original = maxram.anchors.verify_anchor_sequence

    def counted(seq, baton):
        calls.append(seq.m)
        return original(seq, baton)

    monkeypatch.setattr(maxram.anchors, "verify_anchor_sequence", counted)
    monkeypatch.setattr(maxram.cli, "verify_anchor_sequence", counted, raising=False)
    out = tmp_path / "anchor.json"
    assert main(["anchors", "--steps", "1,3/2", "--faithful", "-o", str(out)]) == 0
    assert calls == [70]
    monkeypatch.undo()
    assert validate_certificate(str(out)).ok


def test_anchors_bad_steps_exit_2(capsys):
    assert main(["anchors", "--steps", ""]) == 2
    assert main(["anchors", "--steps", "1,zebra"]) == 2


# -- color ---------------------------------------------------------------


def test_color_randomized_coloring_validates(capsys, b2_metric):
    code, obj = run_json(capsys, ["color", "--metric", b2_metric, "--n", "2"])
    assert code == 0
    assert obj["kind"] == "periodic_coloring"
    assert obj["period"] == "3" and obj["window"] == "2"
    assert validate_certificate(obj).ok


def test_color_needs_asymptotic_for_fractional_spaces(capsys, half_pair_metric):
    assert main(["color", "--metric", half_pair_metric, "--n", "1"]) == 2
    capsys.readouterr()
    code, obj = run_json(
        capsys, ["color", "--metric", half_pair_metric, "--n", "1", "--asymptotic"]
    )
    assert code == 0
    assert validate_certificate(obj).ok


def test_color_warnings_go_to_stderr_not_the_artifact(capsys, half_pair_metric):
    code = main(["color", "--metric", half_pair_metric, "--n", "1", "--asymptotic"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "warning" not in captured.out


def test_color_u1_emits_the_analytic_bound(capsys, b2_metric):
    code, obj = run_json(
        capsys, ["color", "--metric", b2_metric, "--n", "4", "--variant", "u1"]
    )
    assert code == 0
    assert obj["variant"] == "U1"
    assert obj["asymptotic_only"] is True
    assert obj["trivial_bound_better"] is True
    assert isinstance(obj["value"], float)


@pytest.mark.parametrize("n", ["0", "-3", "2000", "1000000"])
def test_color_u1_out_of_range_n_is_exit_2(capsys, b2_metric, n):
    assert main(["color", "--metric", b2_metric, "--n", n, "--variant", "u1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_color_u1_compares_with_2_to_the_n_past_the_float_range(capsys, b2_metric):
    # 1500 * ln 1500 * 1.5^1500 is about 1.5e268, a float; 2^1500 is not.
    code, obj = run_json(
        capsys, ["color", "--metric", b2_metric, "--n", "1500", "--variant", "u1"]
    )
    assert code == 0
    assert 1e268 < obj["value"] < 2e268
    assert obj["trivial_bound_better"] is False


# -- bounds ---------------------------------------------------------------


def test_bounds_csv(capsys):
    assert main(["bounds", "--k", "2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "k,n,lower,upper\n2,2,3,4\n"
    assert main(["bounds", "--k", "1", "--n", "3"]) == 0
    assert capsys.readouterr().out == "k,n,lower,upper\n1,3,8,8\n"


def test_bounds_rejects_bad_parameters(capsys):
    assert main(["bounds", "--k", "0", "--n", "2"]) == 2


# -- chi ---------------------------------------------------------------


def test_chi_unit_square(capsys):
    code, obj = run_json(capsys, ["chi", "--grid", "1,2"])
    assert code == 0
    assert obj["color_count"] == 4 and obj["optimal"] is True
    assert validate_certificate(obj).ok


def test_chi_budget_exhaustion_exits_3_but_writes(tmp_path, capsys):
    out = tmp_path / "chi.json"
    code = main(["chi", "--grid", "2,2", "--budget", "5", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget exhausted" in captured.err
    assert validate_certificate(str(out)).ok


def test_chi_respects_the_budget_environment_variable(monkeypatch, tmp_path, capsys):
    out = tmp_path / "chi.json"
    monkeypatch.setenv("MAXRAM_BUDGET", "5")
    assert main(["chi", "--grid", "2,2", "-o", str(out)]) == 3
    monkeypatch.setenv("MAXRAM_BUDGET", "100000")
    assert main(["chi", "--grid", "2,2", "-o", str(out)]) == 0
    capsys.readouterr()


def test_non_integer_budget_variable_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("MAXRAM_BUDGET", "abc")
    assert main(["chi", "--grid", "1,1"]) == 2
    assert "error: MAXRAM_BUDGET is not an integer: 'abc'" in capsys.readouterr().err


def test_chi_grid_parse_error(capsys):
    assert main(["chi", "--grid", "two,2"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_chi_with_custom_metric(tmp_path, capsys, b2_metric):
    code, obj = run_json(capsys, ["chi", "--grid", "2,1", "--metric", b2_metric])
    assert code == 0
    assert obj["color_count"] == 2
    assert validate_certificate(obj).ok


# -- cover ---------------------------------------------------------------


def test_cover_exact_default(capsys):
    code, obj = run_json(capsys, ["cover", "--m", "3", "--d", "2", "--n", "2"])
    assert code == 0
    assert obj["size"] == 3 and obj["optimal"] is True
    assert validate_certificate(obj).ok


def test_cover_greedy_and_random_modes(capsys):
    code, greedy = run_json(
        capsys, ["cover", "--m", "3", "--d", "2", "--n", "2", "--greedy"]
    )
    assert code == 0 and greedy["size"] == 3
    code, rand = run_json(
        capsys, ["cover", "--m", "3", "--d", "2", "--n", "2", "--random", "--seed", "5"]
    )
    assert code == 0
    assert validate_certificate(rand).ok


def test_cover_missing_parameters(capsys):
    assert main(["cover", "--m", "3"]) == 2


def test_cover_table_csv(capsys):
    assert main(["cover", "table", "--max", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "n,lower,upper,exact\n1,2,2,true\n2,3,3,true\n"


def test_cover_and_its_validation_never_import_numpy(tmp_path):
    """numpy is loaded on first use, and covers never use it."""
    path = tmp_path / "cover.json"
    script = f"""
import sys
from maxram.cli import main
assert "numpy" not in sys.modules, "import maxram.cli"
assert main(["cover", "--m", "3", "--d", "2", "--n", "3", "--exact",
             "--output", {str(path)!r}]) == 0
assert main(["validate", {str(path)!r}]) == 0
assert "numpy" not in sys.modules, "cover and validate"
"""
    src = str(Path(maxram.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


# -- validate ---------------------------------------------------------------


def test_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "cover.json"
    assert main(["cover", "--m", "3", "--d", "2", "--n", "1", "-o", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    assert "ok: torus_cover" in capsys.readouterr().out

    obj = read_json(path)
    obj["size"] = 9
    path.write_text(dump_json(obj))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "invalid: torus_cover" in out
    assert "size" in out


def test_validate_bad_json_and_missing_file(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    assert main(["validate", str(garbled)]) == 2
    assert main(["validate", str(tmp_path / "ghost.json")]) == 2


@pytest.mark.parametrize("argv", [["validate", "{}"], ["embed", "--metric", "{}"]])
def test_non_utf8_input_is_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"distance_matrix": [["0"]], "note": "caf\u00e9"}'.encode("latin-1"))
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: not UTF-8 text")
    assert captured.out == ""


def test_validate_a_directory_is_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


# -- shared options ---------------------------------------------------------------


def test_threads_flag_is_rejected_by_argparse(capsys, b2_metric):
    """--threads did nothing and is gone: argparse rejects it with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "embed", "--metric", b2_metric])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: maxram")
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--metric", b2_metric, "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_artifacts_do_not_depend_on_runtime_chatter(tmp_path, capsys):
    """stderr carries the run report; the artifact bytes stay canonical."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["chi", "--grid", "1,2", "-o", str(a)])
    main(["chi", "--grid", "1,2", "-o", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["kind"] == "chromatic"
