"""End-to-end command line runs, in process via main(argv)."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import maxram.anchors
import maxram.cli
from maxram.anchors import MAX_COMBINATIONS
from maxram.cli import build_parser, main
from maxram.cover import MAX_TORUS_POINTS
from maxram.io import dump_json, matrix_to_obj, read_json, write_json
from maxram.metric import Baton
from maxram.validate import validate_certificate

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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n", "2", "--asymptotic"],
         "da0f2deeb98ba5064371a3a1f589bb443529e299ec749831ddc8c5d3871af7c1"),
        (["--n", "5", "--seed", "1"],
         "9b51a2dd6b0617f369d85321a0614f86a43663df880dc3a7ac64bd28f6db74b1"),
    ],
)
def test_color_artifact_bytes_are_pinned(tmp_path, capsys, argv, digest):
    """Coloring certificates for the unit 2-baton, byte for byte: the
    36,481-box asymptotic one and a randomized one in dimension 5."""
    metric = tmp_path / "unit2.json"
    metric.write_text(json.dumps({"points": [["0"], ["1"], ["2"]]}))
    out = tmp_path / "color.json"
    assert main(["color", "--metric", str(metric), *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_chi_grid_parse_error(capsys):
    assert main(["chi", "--grid", "two,2"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_chi_with_custom_metric(tmp_path, capsys, b2_metric):
    code, obj = run_json(capsys, ["chi", "--grid", "2,1", "--metric", b2_metric])
    assert code == 0
    assert obj["color_count"] == 2
    assert validate_certificate(obj).ok


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["chi", "--grid", "3,3", "--metric", "{unit2}", "--budget", "1000"], 3,
         "f2731c984b4a9560dfa1b56e481e1befb64000d4aab0c882933b454de763536d"),
        (["chi", "--grid", "5,2", "--metric", "{baton12}", "--budget", "30000"], 3,
         "cc668297cb534c76d0f74e3b943bf8a620231213f193d2db13d408fc2b098628"),
        (["copies", "--metric", "{unit2}", "--points", "{grid}", "--distinct-supports"],
         0, "00f858788464f494752d4c834f261f003e7604dda92575a9160f5ea67da4a3bd"),
    ],
)
def test_copy_search_artifact_bytes_are_pinned(tmp_path, capsys, argv, code, digest):
    """Copy order drives the edge order and the colors a search finds, so
    these artifacts pin it byte for byte: two capped chi searches, and the
    unit 2-baton's distinct-support copies in the grid {0..3}^2."""
    inputs = {
        "unit2": [["0"], ["1"], ["2"]],
        "baton12": [["0"], ["1"], ["3"]],
        "grid": [[str(a), str(b)] for a in range(4) for b in range(4)],
    }
    paths = {}
    for name, points in inputs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"points": points}))
    out = tmp_path / "out.json"
    assert main([a.format(**paths) for a in argv] + ["-o", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def seeded_dense_subset(seed: int) -> dict:
    """K^N + 1 points of {0..K}^N, K = 3 and N = 5, drawn by the seed."""
    grid = list(itertools.product(range(4), repeat=5))
    chosen = random.Random(seed).sample(grid, 3**5 + 1)
    return {"k": 3, "n": 5, "elements": [list(p) for p in sorted(chosen)]}


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["anchors", "--steps", "1,1/2,1/3", "--faithful"], 0,
         "945f1618f9c1ea8556c10ddd0a49b877b5028112cb0f59ef8b6edf277569e044"),
        (["extract", "--subset", "{subset}", "--k", "3"], 0,
         "dbc89b9de4cf526a5ef839c67ad7e333ceac85b84aafaa4527028ac741cbf186"),
        (["cover", "--m", "3", "--d", "2", "--n", "3", "--exact"], 0,
         "06f6f0211a250b365985227e81daaeb3bd295c3f7f67749b86bb73be971f7e9a"),
        (["cover", "--m", "45", "--d", "15", "--n", "2", "--exact"], 0,
         "5426f24a59b10b4442d5be04b23454cefe9a3a207f1862c6b0be6444c020c0e4"),
        (["cover", "--m", "9", "--d", "2", "--n", "2", "--exact", "--budget", "150000"],
         0, "da4433e4790a00db27cdcde77bd48b92d2de490db9dd72ab0346ffecc4381953"),
    ],
)
def test_certificate_artifact_bytes_are_pinned(tmp_path, capsys, argv, code, digest):
    """The anchor sequence for steps 1, 1/2, 1/3 (m = 2453), a unit
    3-baton extracted from the seed-1 dense subset of {0..3}^5, and three
    exact torus covers, the last one proved within its node cap, byte for
    byte."""
    subset = tmp_path / "subset.json"
    subset.write_text(json.dumps(seeded_dense_subset(1)))
    out = tmp_path / "out.json"
    assert main([a.format(subset=subset) for a in argv] + ["-o", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_cover_table_proves_six_rows_in_seconds(capsys):
    start = time.perf_counter()
    assert main(["cover", "table", "--max", "6"]) == 0
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out == (
        "n,lower,upper,exact\n1,2,2,true\n2,3,3,true\n3,5,5,true\n"
        "4,8,8,true\n5,12,12,true\n6,18,18,true\n"
    )


def test_cover_table_takes_no_seed():
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["cover", "table", "--max", "2", "--seed", "3"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "before, after",
    [
        (["--budget", "5", "-o", "{out}"], []),
        ([], ["--budget", "5", "-o", "{out}"]),
        (
            ["--budget", "1", "-o", "{other}"],
            ["--budget", "5", "-o", "{out}"],
        ),
    ],
    ids=["before-table", "after-table", "after-overrides-before"],
)
def test_cover_table_reads_shared_flags_on_either_side_of_table(
    tmp_path, capsys, before, after
):
    out, other = tmp_path / "table.csv", tmp_path / "other.csv"
    argv = [
        a.format(out=out, other=other)
        for a in ["cover", *before, "table", "--max", "4", *after]
    ]
    args = build_parser().parse_args(argv)
    assert (args.budget, args.output) == (5, str(out))
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert not other.exists()
    # A budget of 5 moves leaves the n = 4 row unproved; at n = 3 the
    # local search meets the slice bound in one move.
    assert out.read_text().endswith("\n3,5,5,true\n4,8,9,false\n")


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_cover_table_without_rows_is_exit_2(capsys, n_max):
    assert main(["cover", "table", "--max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def run_python(script: str, **environ: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this maxram, with
    environ added to its environment."""
    src = str(Path(maxram.cli.__file__).resolve().parents[1])
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )


def metric_files(tmp_path) -> dict[str, str]:
    """Write the small inputs the no-numpy runs read; return their paths."""
    files = {
        "unit2": {"points": [["0"], ["1"], ["2"]]},
        "line": {"points": [[str(x)] for x in range(5)]},
        "anchored": {"points": [[str(x)] for x in range(4)]},
        "subset": {"k": 2, "n": 2,
                   "elements": [[0, 0], [0, 2], [1, 1], [2, 0], [2, 2]]},
    }
    paths = {}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def assert_runs_without_numpy(tmp_path, runs) -> None:
    """Run each (argv, certificate) of runs, and validate each certificate,
    in one fresh interpreter; numpy must stay unloaded throughout."""
    script = (
        "import sys\nfrom maxram.cli import main\n"
        "assert 'numpy' not in sys.modules, 'import maxram.cli'\n"
    )
    for name, (argv, certificate) in runs.items():
        out = str(tmp_path / f"{name}.out")
        script += f"assert main({argv + ['-o', out]!r}) == 0, {name!r}\n"
        if certificate:
            script += f"assert main(['validate', {out!r}]) == 0, {name!r}\n"
        script += f"assert 'numpy' not in sys.modules, {name!r}\n"
    run = run_python(script)
    assert run.returncode == 0, run.stderr


def test_cover_and_its_validation_never_import_numpy(tmp_path):
    """Covers and their tables run on Python ints, and so does validate."""
    assert_runs_without_numpy(tmp_path, {
        "cover": (["cover", "--m", "3", "--d", "2", "--n", "3", "--exact"], True),
        "cover-table": (["cover", "table", "--max", "2"], False),
    })


def test_copy_search_and_its_validation_never_import_numpy(tmp_path):
    """Copy search runs on Python ints: chi, copies, embed, extract and
    color --metric, and the validation of what they write, leave numpy
    unloaded."""
    f = metric_files(tmp_path)
    assert_runs_without_numpy(tmp_path, {
        "chi": (["chi", "--grid", "3,2"], True),
        "copies": (["copies", "--metric", f["unit2"], "--points", f["line"]], True),
        "embed": (["embed", "--metric", f["unit2"]], True),
        "extract": (["extract", "--subset", f["subset"], "--k", "2"], True),
        "color": (["color", "--metric", f["unit2"], "--n", "2"], True),
        "color-asymptotic": (["color", "--metric", f["unit2"], "--n", "1",
                              "--asymptotic"], True),
        "color-u1": (["color", "--metric", f["unit2"], "--n", "3",
                      "--variant", "u1"], False),
    })


def test_anchors_bounds_and_their_validation_never_import_numpy(tmp_path):
    """Anchor sequences, the anchors behind extract --baton and bounds run
    on Python ints and Fractions, and so does validate of what they write."""
    f = metric_files(tmp_path)
    assert_runs_without_numpy(tmp_path, {
        "extract-baton": (["extract", "--subset", f["anchored"], "--baton", "1,2"],
                          True),
        "anchors": (["anchors", "--steps", "1,3/2", "--faithful"], True),
        "anchors-fast": (["anchors", "--steps", "2,3"], True),
        "bounds": (["bounds", "--k", "2", "--n", "2"], False),
    })
    anchor = read_json(tmp_path / "anchors.out")
    assert anchor["kind"] == "anchor_sequence" and anchor["q0"] > 0


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


def validate_edited(tmp_path, capsys, argv, edits) -> str:
    """Write argv's certificate, apply edits, validate it in bounded time
    and return the validate output."""
    path = tmp_path / "edited.json"
    assert main(argv + ["-o", str(path)]) == 0
    obj = read_json(path)
    obj.update(edits)
    path.write_text(dump_json(obj))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 1
    assert time.perf_counter() - start < 5
    return capsys.readouterr().out


@pytest.mark.parametrize("q", [10**9, 10**40])
def test_validate_refuses_an_anchor_q_past_the_stated_values(tmp_path, capsys, q):
    """At these q the half-up numerators of 1, 3/2 sum to m >= 2.5 * 10^9,
    which the 71 stated values cannot hold; no rebuild is tried."""
    argv = ["anchors", "--steps", "1,3/2", "--faithful"]
    out = validate_edited(tmp_path, capsys, argv, {"q": q})
    assert out.startswith("invalid: anchor_sequence\n")
    assert f"  q: at q = {q} the half-up numerators give m = {5 * q // 2}" in out


def test_validate_refuses_steps_with_too_many_combinations(tmp_path, capsys):
    """1, 1/2000, 1/2001 have about 1.2 * 10^7 bounded coefficient
    combinations; they are counted, not enumerated."""
    argv = ["anchors", "--steps", "1,3/2", "--faithful"]
    out = validate_edited(tmp_path, capsys, argv, {"steps": ["1", "1/2000", "1/2001"]})
    assert out.startswith("invalid: anchor_sequence\n  steps: ")
    assert f"above {MAX_COMBINATIONS}" in out


def test_anchors_with_too_many_combinations_is_exit_2(capsys):
    start = time.perf_counter()
    assert main(["anchors", "--steps", "1,1/2000,1/2001"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"above {MAX_COMBINATIONS}" in captured.err
    assert captured.out == ""


def test_validate_refuses_a_chromatic_grid_larger_than_its_colors(tmp_path, capsys):
    """{0..9}^9 has 10^9 points; the nine listed colors are refused
    before any grid point is built."""
    argv = ["chi", "--grid", "2,2"]
    out = validate_edited(tmp_path, capsys, argv, {"k": 9, "n": 9})
    assert out == "invalid: chromatic\n  colors: one color per grid point required\n"


@pytest.mark.parametrize(
    "edits",
    [
        {"m": 10**6},
        {"m": 10**30, "n": 3, "d": 1, "translates": []},
        {"n": 10**12, "translates": []},
    ],
    ids=["m=10^6", "m=10^30", "n=10^12"],
)
def test_validate_refuses_a_torus_past_the_point_cap(tmp_path, capsys, edits):
    """10^12, 10^90 and 3^(10^12) points: each torus is refused before a
    coverage mask, the counting bound or m^n itself is computed."""
    argv = ["cover", "--m", "3", "--d", "2", "--n", "2"]
    out = validate_edited(tmp_path, capsys, argv, edits)
    assert out == (
        f"invalid: torus_cover\n  m, n: the torus has more than {MAX_TORUS_POINTS} points\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--m", "2", "--d", "1", "--n", "30", "--greedy"],
        ["cover", "--m", "3", "--d", "2", "--n", "30"],
        ["bounds", "--k", "2", "--n", "30"],
        ["color", "--metric", "{metric}", "--n", "30"],
    ],
    ids=["cover-greedy", "cover-exact", "bounds", "color"],
)
def test_commands_refuse_a_torus_past_the_point_cap(capsys, b2_metric, argv):
    """2^30 and 3^30 points: the torus is refused when it is stated, before
    any command builds a mask or writes a certificate validate would refuse."""
    start = time.perf_counter()
    assert main([a.format(metric=b2_metric) for a in argv]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == f"error: the torus has more than {MAX_TORUS_POINTS} points\n"
    assert captured.out == ""


def test_cover_refuses_a_one_point_torus_of_huge_dimension(capsys):
    """Z_1^(10^8) has one point, but its one translate is a 10^8-tuple;
    n is capped on every torus, so the command exits 2 at once."""
    start = time.perf_counter()
    assert main(["cover", "--m", "1", "--d", "1", "--n", "100000000", "--greedy"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == "error: the one-point torus needs n < 25\n"
    assert captured.out == ""


def test_exact_cover_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The local search draws from a fixed seed and never walks a set or
    dict in hash order, so two interpreters with different hash seeds
    write the same (9,2,2) certificate: 23 translates, proved optimal."""
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"cover{hash_seed}.json"
        argv = ["cover", "--m", "9", "--d", "2", "--n", "2", "--exact", "-o", str(out)]
        script = f"from maxram.cli import main\nraise SystemExit(main({argv!r}))\n"
        run = run_python(script, PYTHONHASHSEED=hash_seed)
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    cert = json.loads(outputs[0])
    assert (cert["size"], cert["optimal"], cert["lower_bound"]) == (23, True, 23)


def test_validate_refuses_a_color_count_far_past_its_colors(tmp_path, capsys):
    """10^12 stated colors against the four listed: the count is compared
    with the colors in use before any range of that size is built."""
    argv = ["chi", "--grid", "1,2"]
    out = validate_edited(tmp_path, capsys, argv, {"color_count": 10**12})
    assert out.startswith("invalid: chromatic\n")
    assert "  color_count: colors must use exactly 0..count-1\n" in out


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "dict"])
def test_validate_names_an_unhashable_kind_unknown(tmp_path, capsys, kind):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"kind": kind}))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"invalid: {kind}\n  kind: unknown {kind!r}\n"


def test_validate_refuses_a_coloring_period_far_past_its_boxes(
    tmp_path, capsys, half_pair_metric
):
    """Period and window of 3 * 10^12 make 1.28 * 10^14 boxes per axis
    against the 128 listed; the window check costs one comparison per
    listed box, whatever the window's reach."""
    argv = ["color", "--metric", half_pair_metric, "--n", "1", "--asymptotic"]
    huge = str(3 * 10**12)
    out = validate_edited(tmp_path, capsys, argv, {"period": huge, "window": huge})
    assert out.startswith("invalid: periodic_coloring\n")
    assert "  classes: 128 owned boxes, expected 128000000000000\n" in out


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


@pytest.mark.parametrize("budget", ["0", "-1", "x"])
@pytest.mark.parametrize(
    "argv",
    [["chi", "--grid", "1,1"], ["cover", "--m", "3", "--d", "2", "--n", "1"],
     ["cover", "table", "--max", "1"]],
    ids=["chi", "cover", "cover-table"],
)
def test_budget_below_one_or_not_an_integer_is_exit_2(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --budget: must be a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    ["embed", "copies", "extract", "anchors", "color", "bounds", "chi", "cover",
     "cover table", "validate"],
)
def test_help_exits_0_for_every_subcommand(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: maxram {command}")


def test_artifacts_do_not_depend_on_runtime_chatter(tmp_path, capsys):
    """stderr carries the run report; the artifact bytes stay canonical."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["chi", "--grid", "1,2", "-o", str(a)])
    main(["chi", "--grid", "1,2", "-o", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["kind"] == "chromatic"
