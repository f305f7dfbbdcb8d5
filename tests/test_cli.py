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
import maxram.chromatic
import maxram.cli
from maxram.anchors import MAX_COMBINATIONS, MAX_M
from maxram.cli import build_parser, main
from maxram.colorings import avoidance_coloring
from maxram.cover import MAX_TABLE_POINTS, MAX_TORUS_POINTS
from maxram.io import dump_json, matrix_to_obj, read_json, write_json
from maxram.metric import MAX_GRID_POINTS, Baton, grid_points
from maxram.rational import format_rational
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


@pytest.mark.parametrize(
    "argv, points, err",
    [
        (["embed", "--metric"], [["0", "1"], ["2"]],
         "error: point (2) has dimension 1, expected 2\n"),
        (["extract", "--baton", "1,1", "--subset"], [["0"], ["1/3"], ["2"]],
         "error: point (1/3) has a coordinate outside the anchors\n"),
    ],
    ids=["embed", "extract"],
)
def test_errors_name_a_point_by_its_rational_coordinates(
    tmp_path, capsys, argv, points, err
):
    path = tmp_path / "points.json"
    write_json(path, {"points": points})
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (err, "")
    assert "Fraction(" not in captured.err


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


@pytest.mark.parametrize(
    "flags, err",
    [
        (["--faithful"], "--faithful needs --baton"),
        (["--baton", "1,2", "--k", "3"], "--k applies only without --baton"),
    ],
    ids=["faithful-without-baton", "k-with-baton"],
)
def test_extract_refuses_a_flag_of_the_other_mode(tmp_path, capsys, flags, err):
    pts = tmp_path / "pts.json"
    write_json(pts, {"points": [["0"], ["1"], ["2"], ["3"]]})
    assert main(["extract", "--subset", str(pts), *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (f"error: {err}\n", "")


@pytest.mark.parametrize(
    "argv, make",
    [
        ([], lambda rows: {"k": 1, "n": len(rows[0]), "elements": rows}),
        (["--baton", "1"], lambda rows: {"points": rows}),
    ],
    ids=["subset", "baton"],
)
def test_extract_runs_past_the_recursion_limit(tmp_path, capsys, argv, make):
    """Two opposite corners of {0,1}^n are dense (2 > 1^n), and the
    extractor peels one axis per step: n = 2,000 runs past Python's
    default recursion limit of 1,000."""
    n = 2000
    subset, out = tmp_path / "subset.json", tmp_path / "embedding.json"
    write_json(subset, make([[0] * n, [1] * n]))
    assert main(["extract", "--subset", str(subset), *argv, "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert "ok: copy_embedding" in capsys.readouterr().out


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
         "5c70b6c59a490f3f5f7599be042c488f16eb5485694bbba8ac4e73e9bc0cb94d"),
        (["--n", "5", "--seed", "1"],
         "9de8133c44d53c3b0ae077422f45edf7a8c89550bb3a784505fb86b7984590d0"),
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
    """The half pair, a rational space, colors and validates with and
    without --asymptotic."""
    for flags in [], ["--asymptotic"]:
        argv = ["color", "--metric", half_pair_metric, "--n", "1", *flags]
        code, obj = run_json(capsys, argv)
        assert code == 0
        assert validate_certificate(obj).ok


def test_color_warnings_go_to_stderr_not_the_artifact(capsys, half_pair_metric):
    code = main(["color", "--metric", half_pair_metric, "--n", "1", "--asymptotic"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "warning" not in captured.out


def test_color_has_no_variant_option(capsys, b2_metric):
    """color writes only the certificate of the coloring it builds."""
    with pytest.raises(SystemExit) as exc:
        main(["color", "--metric", b2_metric, "--n", "3", "--variant", "u1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --variant u1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n", ["0", "-3", "2000", "1000000"])
def test_color_out_of_range_n_is_exit_2(capsys, b2_metric, n):
    assert main(["color", "--metric", b2_metric, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


# -- bounds ---------------------------------------------------------------


def test_bounds_csv(capsys):
    assert main(["bounds", "--k", "2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "k,n,lower,upper\n2,2,3,4\n"
    assert main(["bounds", "--k", "1", "--n", "3"]) == 0
    assert capsys.readouterr().out == "k,n,lower,upper\n1,3,8,8\n"


@pytest.mark.parametrize("n", range(2, 9))
def test_bounds_upper_column_is_the_class_count_of_color(capsys, b2_metric, n):
    """The upper column counts the owning translates of the unit 2-baton's
    coloring, the classes that color writes for it."""
    assert main(["bounds", "--k", "2", "--n", str(n)]) == 0
    upper = int(capsys.readouterr().out.splitlines()[1].split(",")[3])
    assert upper == len(avoidance_coloring(B2, n).window_anchors)
    code, cert = run_json(capsys, ["color", "--metric", b2_metric, "--n", str(n)])
    assert code == 0
    assert upper == cert["class_count"] == len(cert["classes"])


def test_bounds_rejects_bad_parameters(capsys):
    """k or n below 1 is refused by name, not as the torus Z_(k+1)^n."""
    for k, n in [(0, 2), (-1, 2), (2, 0), (2, -3), (0, 0)]:
        assert main(["bounds", "--k", str(k), "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: need k >= 1 and n >= 1\n")


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
         "71a321f2c3824dd69b2a91cd96ab4b45d5a2be9da7272cd8a590bf1d95564efa"),
        (["chi", "--grid", "5,2", "--metric", "{baton12}", "--budget", "30000"], 0,
         "9cafe6aa120c68d38f41bf5eb0f54cd4f99fd853ebd77c1ba27fcd70fbe5e933"),
        (["copies", "--metric", "{unit2}", "--points", "{grid}", "--distinct-supports"],
         0, "017059f2b0225e997007dde4e97a0530707cb59511a911f2824033570c4a8862"),
        (["chi", "--grid", "5,2", "--metric", "{baton12}"], 0,
         "9cafe6aa120c68d38f41bf5eb0f54cd4f99fd853ebd77c1ba27fcd70fbe5e933"),
        (["copies", "--metric", "{square}", "--points", "{grid}", "--distinct-supports"],
         0, "4370693409d186e2e147973b1a99ab41f1aa981462aa3e7ab6b7f44c2f08f4f7"),
    ],
)
def test_copy_search_artifact_bytes_are_pinned(tmp_path, capsys, argv, code, digest):
    """Copy order drives the edge order and the colors a search finds, so
    these artifacts pin it byte for byte: two capped chi searches (the
    second proves chi = 4 within its cap), the unit 2-baton's
    distinct-support copies in the grid {0..3}^2, the (1,2)-baton's full
    proof of chi = 4 on {0..5}^2, and the distinct-support copies of the
    unit square's corners (|Aut| = 24) in {0..3}^2."""
    inputs = {
        "unit2": [["0"], ["1"], ["2"]],
        "baton12": [["0"], ["1"], ["3"]],
        "square": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
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
         "69c05879df99d8cc79a4ba674933e629fc59c2659e64d0316838aefaf9beae6d"),
        (["extract", "--subset", "{subset}", "--k", "3"], 0,
         "c9c6a72ffd9f290c0bb610bafede6f022902e79c8246cdde2c9c554242401db5"),
        (["cover", "--m", "3", "--d", "2", "--n", "3", "--exact"], 0,
         "75648e1271790a8890b897b79405cc3154e42cab77c635f76049234e1a1c23ce"),
        (["cover", "--m", "45", "--d", "15", "--n", "2", "--exact"], 0,
         "b226bb0b6bd127bb9857f760289f287efdc36ab379dcd0618e969f78749cd06a"),
        (["cover", "--m", "9", "--d", "2", "--n", "2", "--exact", "--budget", "150000"],
         0, "fffdbd60c541dbad01546fb016f9428eb1f0e680f0b95073c8dbed8b36e658ce"),
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


def run_python(
    script: str, timeout: float | None = None, **environ: str
) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this maxram, with
    environ added to its environment; past timeout seconds it is killed
    and subprocess.TimeoutExpired raised."""
    src = str(Path(maxram.cli.__file__).resolve().parents[1])
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=timeout,
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


@pytest.mark.parametrize(
    "steps, q, p",
    [("1,1/2,1/3", 1338, [1338, 669, 446]), ("1,3/2", 28, [28, 42]),
     ("1,3/2", 10**40, [10**40, 15 * 10**39])],
)
def test_validate_names_a_value_list_shorter_than_the_rebuild(
    tmp_path, capsys, steps, q, p
):
    """With the stated m rebuilt at q, the short value list is what fails,
    named with both counts. At q = 10^40 the refusal comes before any of
    the 2.5 * 10^40 + 1 values is built."""
    argv = ["anchors", "--steps", steps, "--faithful"]
    out = validate_edited(tmp_path, capsys, argv, {"q": q, "p": p, "m": sum(p), "a": []})
    assert out == (
        "invalid: anchor_sequence\n"
        f"  a: 0 values stated, the rebuild at q = {q} has {sum(p) + 1}\n"
    )


def test_validate_refuses_anchor_values_as_rational_strings(tmp_path, capsys):
    """The anchors certificate states integer numerators a over den; the
    same values as reduced "p/q" strings, with no den, read invalid."""
    path = tmp_path / "anchors.json"
    assert main(["anchors", "--steps", "1,1/2,1/3", "--faithful", "-o", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.endswith("ok: anchor_sequence\n")
    obj = read_json(path)
    den = obj.pop("den")
    obj["a"] = [format_rational(Fraction(n, den)) for n in obj["a"]]
    path.write_text(dump_json(obj))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == "invalid: anchor_sequence\n  a: numerators must be integers\n"


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


def test_anchors_refuses_a_sequence_past_the_m_cap(capsys):
    """Steps 1, 1/2, 1/3, 1/5, 1/7 reach m = 57,124,543 at their first
    admissible q; the cap refuses them before any value is built."""
    start = time.perf_counter()
    assert main(["anchors", "--steps", "1,1/2,1/3,1/5,1/7", "--faithful"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == (
        "error: at q = 26249790 the half-up numerators give m = 57124543, "
        f"above {MAX_M}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("cap, code", [(2452, 2), (2453, 0)])
def test_anchors_m_cap_is_inclusive(monkeypatch, capsys, cap, code):
    monkeypatch.setattr(maxram.anchors, "MAX_M", cap)
    assert main(["anchors", "--steps", "1,1/2,1/3", "--faithful"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") == (code == 2)


def test_validate_refuses_a_chromatic_grid_larger_than_its_colors(tmp_path, capsys):
    """{0..9}^9 has 10^9 points; the nine listed colors are refused
    before any grid point is built."""
    argv = ["chi", "--grid", "2,2"]
    out = validate_edited(tmp_path, capsys, argv, {"k": 9, "n": 9})
    assert out == "invalid: chromatic\n  colors: one color per grid point required\n"


def test_chi_refuses_a_zero_step_grid(capsys, b2_metric):
    """{0}^(10^9) is one point of 10^9 coordinates; k = 0 is refused
    before any grid point is built."""
    start = time.perf_counter()
    assert main(["chi", "--grid", "0,1000000000", "--metric", b2_metric]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == "error: grid needs k >= 1 and n >= 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("n", [10**5, 10**9], ids=["n=10^5", "n=10^9"])
def test_validate_refuses_a_zero_step_chromatic_grid(tmp_path, capsys, n):
    """One color for the one point of {0}^n, claimed optimal: k = 0 is
    refused before the grid is built or the copies are searched."""
    argv = ["chi", "--grid", "1,2"]
    edits = {"k": 0, "n": n, "colors": [0], "color_count": 1, "lower_bound": 1}
    out = validate_edited(tmp_path, capsys, argv, edits)
    assert out == "invalid: chromatic\n  malformed: grid needs k >= 1 and n >= 1\n"


@pytest.mark.parametrize(
    "grid", ["1,40", "2,8", "1,13", "3,1000000000"], ids=lambda g: f"grid={g}"
)
def test_chi_refuses_a_grid_past_the_point_cap(capsys, b2_metric, grid):
    """2^40, 3^8, 2^13 and 4^(10^9) points: the grid is refused before any
    point, or (k+1)^n itself, is built."""
    start = time.perf_counter()
    assert main(["chi", "--grid", grid, "--metric", b2_metric]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == f"error: the grid has more than {MAX_GRID_POINTS} points\n"
    assert captured.out == ""


def test_the_grid_cap_admits_its_own_size():
    assert len(grid_points(1, 12)) == len(grid_points(15, 3)) == MAX_GRID_POINTS


def test_chi_refuses_a_copy_hypergraph_past_the_edge_cap(
    monkeypatch, tmp_path, capsys, b2_metric
):
    """The unit 2-baton has 3,464 supports in {0..3}^3: with the edge cap
    one below that, chi exits 2 and writes nothing; at 3,464 it runs."""
    out = tmp_path / "chi.json"
    argv = ["chi", "--grid", "3,3", "--metric", b2_metric, "--budget", "10"]
    monkeypatch.setattr(maxram.chromatic, "MAX_EDGES", 3463)
    assert main([*argv, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the copy hypergraph has more than 3463 edges\n"
    assert captured.out == ""
    assert not out.exists()
    monkeypatch.setattr(maxram.chromatic, "MAX_EDGES", 3464)
    assert main([*argv, "-o", str(out)]) == 3
    capsys.readouterr()
    assert validate_certificate(str(out)).ok


def test_validate_refuses_a_chromatic_grid_past_the_point_cap(tmp_path, capsys):
    """One color per point of {0,1}^13, as many colors as the grid has
    points: the grid is refused before it is built or searched."""
    argv = ["chi", "--grid", "1,2"]
    edits = {"n": 13, "colors": [0] * 2**13, "color_count": 1, "lower_bound": 1}
    out = validate_edited(tmp_path, capsys, argv, edits)
    assert out == (
        f"invalid: chromatic\n  malformed: the grid has more than {MAX_GRID_POINTS} points\n"
    )


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


def run_main(argv, timeout=5) -> subprocess.CompletedProcess:
    """maxram's main(argv) in a fresh interpreter, killed past timeout s."""
    script = f"import sys\nfrom maxram.cli import main\nsys.exit(main({argv!r}))\n"
    return run_python(script, timeout=timeout)


@pytest.mark.parametrize(
    "argv, subset, err",
    [
        (["chi", "--grid", "5000,1"], None,
         f"the grid has more than {MAX_GRID_POINTS} points"),
        (["bounds", "--k", "1", "--n", "100000"], None,
         f"the torus has more than {MAX_TORUS_POINTS} points"),
        (["bounds", "--k", "2", "--n", "3000000"], None,
         f"the torus has more than {MAX_TORUS_POINTS} points"),
        (["extract", "--subset", "{subset}"], {"k": 2, "n": 100000, "elements": []},
         "need more than 2^100000 points, got 0"),
        (["extract", "--subset", "{subset}"], {"k": 10**9, "n": 1, "elements": []},
         "need more than 1000000000^1 points, got 0"),
    ],
    ids=["chi-grid-5000,1", "bounds-k1-n1e5", "bounds-k2-n3e6", "extract-n1e5",
         "extract-k1e9"],
)
def test_a_huge_stated_size_exits_2_in_a_fresh_process(tmp_path, argv, subset, err):
    """Each size is refused before the work it states: the grid cap before
    the unit 5000-baton's distance matrix, the torus cap before (k+1)^n,
    and the density bound before k^n or the k + 1 anchors are formed."""
    path = tmp_path / "subset.json"
    path.write_text(json.dumps(subset))
    run = run_main([a.format(subset=path) for a in argv])
    assert (run.returncode, run.stderr, run.stdout) == (2, f"error: {err}\n", "")


def test_a_long_unit_baton_space_is_not_checked_as_a_matrix(tmp_path):
    """The unit 150-baton's space is built from its points, a metric by
    construction, so bounds and chi never run the O(d^3) triangle check
    on it; validate reads the 151 x 151 matrix from the certificate and
    checks it in scaled integers. Each finishes within 5 s."""
    bounds = run_main(["bounds", "--k", "150", "--n", "1"])
    assert (bounds.returncode, bounds.stdout) == (0, "k,n,lower,upper\n150,1,2,2\n")
    cert = tmp_path / "chi.json"
    chi = run_main(["chi", "--grid", "150,1", "-o", str(cert)])
    assert (chi.returncode, chi.stderr) == (0, "")
    check = run_main(["validate", str(cert)])
    assert (check.returncode, check.stdout) == (0, "ok: chromatic\n")


def test_find_copies_finds_a_space_deeper_than_the_recursion_limit():
    """The copy search keeps no call stack per abstract point: a 301-point
    baton is found in itself under a recursion limit of 200, also with
    distinct supports, whose automorphism search runs the same loop."""
    script = (
        "import sys\nsys.setrecursionlimit(200)\n"
        "from maxram.metric import Baton, find_copies\n"
        "baton = Baton.unit(300)\n"
        "space, line = baton.as_metric_space(), baton.as_point_set()\n"
        "found = find_copies(space, line, limit=1)\n"
        "assert found == [tuple(range(301))], found\n"
        "found = find_copies(space, line, distinct_supports=True)\n"
        "assert found == [tuple(range(301))], found\n"
    )
    run = run_python(script, timeout=60)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--m", "3", "--d", "2", "--n", "11", "--greedy"],
        ["cover", "--m", "3", "--d", "2", "--n", "11", "--exact"],
        ["cover", "table", "--max", "11"],
        ["cover", "table", "--max", "16"],
    ],
    ids=["greedy-n11", "exact-n11", "table-11", "table-16"],
)
def test_a_torus_past_the_table_cap_exits_2_in_a_fresh_process(argv):
    """3^11 points is past MAX_TABLE_POINTS, so no coverage table of
    3^11 masks is built; `cover table` checks every row before it solves
    the first, so rows 1..10 are not solved before row 11 is refused."""
    run = run_main(argv)
    err = f"error: the torus has more than {MAX_TABLE_POINTS} points for a coverage table\n"
    assert (run.returncode, run.stderr, run.stdout) == (2, err, "")


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


@pytest.mark.parametrize("argv", [["validate", "{}"], ["embed", "--metric", "{}"]])
@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"distance_matrix": [["0", ' + "1" * 5000 + "]]}"],
    ids=["deep-nesting", "long-int-literal"],
)
def test_json_past_the_parser_limits_is_exit_2(tmp_path, capsys, argv, text):
    """Nesting past the recursion limit and an integer literal past the
    int string-conversion limit are invalid JSON, not a traceback."""
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: invalid JSON: ")
    assert captured.out == ""


def test_validate_a_directory_is_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["cover", "--m", "3", "--d", "2", "--n", "2", "--greedy", "-o", "{}"],
    ["validate", "{}"],
    ["chi", "--grid", "2,2", "--metric", "{}"],
], ids=["cover-output", "validate", "chi-metric"])
def test_a_path_through_a_regular_file_is_exit_2(tmp_path, capsys, argv):
    """A path whose parent is a file raises NotADirectoryError, an OSError
    like a missing file: exit 2 with an error line, no traceback."""
    parent = tmp_path / "some.json"
    parent.write_text("{}")
    path = parent / "x"
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 20] Not a directory: {str(path)!r}\n"
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


# -- README ---------------------------------------------------------------


def readme_cli_lines() -> list[str]:
    """The `maxram ...` lines of the README's CLI block, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("maxram ")]


def test_every_readme_cli_line_exits_0(tmp_path, monkeypatch, capsys):
    """Each command of the README's CLI block runs as written, in order,
    on small input files of the names it uses."""
    fixtures = {
        "space.json": {"points": [["0"], ["1"], ["2"]]},
        "cloud.json": {"points": [[str(x)] for x in range(4)]},
        "subset.json": {"k": 2, "n": 2,
                        "elements": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2]]},
        "points.json": {"points": [[str(x)] for x in range(4)]},
    }
    for name, obj in fixtures.items():
        write_json(tmp_path / name, obj)
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert lines
    for line in lines:
        code = main(line.split()[1:])
        assert code == 0, (line, capsys.readouterr().err)
