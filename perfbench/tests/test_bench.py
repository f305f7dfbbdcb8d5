"""Tests for the benchmark itself: span arithmetic, the gate, the hash record.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import maxram.chromatic
import maxram.cli
import maxram.validate
from maxram import CoverInstance, greedy_cover, validate_certificate
from maxram.io import torus_cover_certificate

import run
from gate import HashRecord, instance_failures
from spans import LAYERS, Span, Tracer, layer_metrics, self_times, unbalanced_commands
from workloads import Instance, cover_sized, instances

ROOT = Path(run.__file__).resolve().parent.parent


def test_self_times_subtract_child_spans():
    spans = [
        Span(0, None, 1, "cli.main", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 4.0),
        Span(2, 1, 1, "b", 2.0, 3.0),
        Span(3, 0, 1, "c", 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == 10.0
    assert unbalanced_commands(spans, selfs) == []


def test_self_times_count_overlapping_children_once():
    spans = [
        Span(0, None, 1, "root", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 5.0),
        Span(2, 0, 1, "b", 3.0, 7.0),
    ]
    assert self_times(spans)[0] == 4.0


def cover_instance(name):
    return next(i for i in instances("cover-exact", 0) if i.name == name)


# (3,2,4) has 81 torus points, more than the 30 up to which the validator
# re-solves a cover, and a known minimum of 8.
COVER_3_2_4 = Instance("cover-3-2-4", ("cover", "--m", "3", "--d", "2", "--n", "4", "--exact"),
                       "torus_cover", False, cover_sized(8, 8, True), "size")


def test_gate_rejects_a_suboptimal_cover_that_validate_accepts():
    inst = CoverInstance(m=3, d=2, n=4)
    cover = greedy_cover(inst)
    assert cover.size == 9
    cover.optimal, cover.lower_bound = True, cover.size
    cert = torus_cover_certificate(inst, cover)
    assert validate_certificate(cert).ok  # above 30 points the validator trusts optimal

    data = json.dumps(cert).encode()
    produce, validate, _ = instance_failures(COVER_3_2_4, 0, data, 0, "ok: torus_cover\n")
    assert any("size 9" in f for f in produce)
    assert validate == []


def test_gate_checks_exit_codes_and_verdicts():
    inst = cover_instance("cover-9-2-2")
    cover = greedy_cover(CoverInstance(m=9, d=2, n=2))
    data = json.dumps(torus_cover_certificate(CoverInstance(m=9, d=2, n=2), cover)).encode()
    assert instance_failures(inst, 3, data, 0, "ok: torus_cover")[:2] == ([], [])
    produce, validate, _ = instance_failures(inst, 1, data, 1, "invalid: torus_cover")
    assert produce and validate
    strict = cover_instance("cover-3-2-3")
    assert instance_failures(strict, 3, None, 0, "ok: torus_cover")[0]


def test_host_clock_rescales_by_the_neighbouring_references(monkeypatch, tmp_path):
    references = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "reference_s", lambda log: next(references))
    clock = run.HostClock(tmp_path / "reference")
    assert clock.scale(2.0) == pytest.approx(2.0 * run.REFERENCE_NOMINAL_S / 0.2)
    assert clock.scale(1.0) == pytest.approx(1.0 * run.REFERENCE_NOMINAL_S / 0.25)
    assert clock.references == [0.1, 0.3, 0.2]


def test_hash_record_rejects_one_changed_byte(tmp_path):
    path = tmp_path / "hashes.json"
    data = b'{"kind": "torus_cover", "size": 8}\n'
    first = HashRecord(path)
    assert first.check("cover", data) is None
    first.save()

    later = HashRecord(path)
    assert later.check("cover", data) is None
    changed = bytearray(data)
    changed[-3] ^= 1
    assert "differs" in later.check("cover", bytes(changed))


def test_tracer_rebinds_every_importer_and_restores():
    original = maxram.chromatic.copy_hypergraph
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        assert maxram.validate.copy_hypergraph is maxram.chromatic.copy_hypergraph
        assert maxram.validate.copy_hypergraph is not original
        tracer.command = 1
        root = tracer.open("cli.main")
        with contextlib.redirect_stdout(io.StringIO()):
            assert maxram.cli.main(["chi", "--grid", "2,1"]) == 0
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert maxram.validate.copy_hypergraph is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "metric.find_copies", "chromatic.exact_chromatic", "io.certificate"} <= names
    assert unbalanced_commands(tracer.spans, self_times(tracer.spans)) == []
    metrics = layer_metrics(tracer)
    assert metrics["chromatic.proved_frac"] == 1.0
    assert metrics["chromatic.edges"] > 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
