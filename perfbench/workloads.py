"""The benchmark's workloads: generated inputs, command lists and known answers.

Each workload is a fixed list of producing commands. Every producing
command writes one certificate, and `maxram validate` re-checks it right
after. The seed only shapes the generated inputs: the dense subset that
`extract` reads and the `color --seed` value.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

Check = Callable[[dict], list[str]]

# Forbidden spaces as collinear point sets, written to <name>.json.
BATONS = {
    "unit2": (0, 1, 2),
    "baton12": (0, 1, 3),
    "baton14": (0, 1, 4),
}

# Dense subset of {0..K}^N with K^N + 1 points: it must contain a unit K-baton.
SUBSET_K, SUBSET_N = 3, 5


@dataclass(frozen=True)
class Instance:
    """One producing command, validated afterwards."""

    name: str  # artifact file stem
    argv: tuple[str, ...]  # CLI arguments; "{x}" names input file x
    kind: str  # certificate kind `validate` must report
    budgeted: bool  # exit 3 (budget exhausted) is allowed
    check: Check  # known-answer check on the parsed artifact
    size_key: str | None  # artifact field summed into answer_size


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write the workload's input files; returns input name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, positions in BATONS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"points": [[str(p)] for p in positions]}))
        paths[name] = str(path)
    if workload == "color-certs":
        path = directory / "subset.json"
        path.write_text(json.dumps(dense_subset(seed)))
        paths["subset"] = str(path)
    return paths


def dense_subset(seed: int) -> dict:
    grid = list(itertools.product(range(SUBSET_K + 1), repeat=SUBSET_N))
    chosen = random.Random(seed).sample(grid, SUBSET_K**SUBSET_N + 1)
    return {"k": SUBSET_K, "n": SUBSET_N, "elements": [list(p) for p in sorted(chosen)]}


# -- known-answer checks --------------------------------------------------


def chi_proved(count: int) -> Check:
    def check(cert: dict) -> list[str]:
        errors = []
        if cert["color_count"] != count:
            errors.append(f"color_count {cert['color_count']}, expected {count}")
        if cert["optimal"] is not True or cert["lower_bound"] != count:
            errors.append("chromatic number not proved optimal")
        return errors

    return check


def chi_bracketed(vertices: int, floor: int) -> Check:
    """A budgeted chi run: a certified bracket whose lower bound is at least `floor`."""

    def check(cert: dict) -> list[str]:
        errors = []
        if len(cert["colors"]) != vertices:
            errors.append(f"{len(cert['colors'])} colors listed, expected {vertices}")
        if not floor <= cert["lower_bound"] <= cert["color_count"]:
            errors.append(
                f"need {floor} <= lower_bound {cert['lower_bound']}"
                f" <= color_count {cert['color_count']}"
            )
        return errors

    return check


def torus_covered(m: int, d: int, n: int, translates) -> bool:
    covered = set()
    for t in translates:
        for off in itertools.product(range(d), repeat=n):
            covered.add(tuple((a + o) % m for a, o in zip(t, off)))
    return len(covered) == m**n


def cover_sized(lo: int, hi: int, proved: bool) -> Check:
    """Size within [lo, hi], optionally proved optimal, and a real cover."""

    def check(cert: dict) -> list[str]:
        errors = []
        size = cert["size"]
        if not lo <= size <= hi:
            errors.append(f"size {size} outside [{lo}, {hi}]")
        if proved and cert["optimal"] is not True:
            errors.append("cover not proved optimal")
        if not cert["lower_bound"] <= size:
            errors.append("lower_bound exceeds size")
        if len(cert["translates"]) != size:
            errors.append("size does not match the translate list")
        elif not torus_covered(cert["m"], cert["d"], cert["n"], cert["translates"]):
            errors.append("translates do not cover the torus")
        return errors

    return check


def coloring_cells(cells_per_axis: int, dim: int) -> Check:
    """Every box of the fundamental cell is listed exactly once."""

    def check(cert: dict) -> list[str]:
        errors = []
        cells = Fraction(cert["period"]) / Fraction(cert["box_size"])
        if cells != cells_per_axis or cert["dim"] != dim:
            errors.append(f"fundamental cell is {cells}^{cert['dim']} boxes")
        boxes = [tuple(box) for cls in cert["classes"] for box in cls]
        if len(boxes) != cells_per_axis**dim or len(set(boxes)) != len(boxes):
            errors.append("boxes do not partition the fundamental cell")
        if not cert["class_count"] == len(cert["classes"]) == len(cert["anchors"]):
            errors.append("class_count does not match classes and anchors")
        return errors

    return check


def anchors_built(m: int) -> Check:
    def check(cert: dict) -> list[str]:
        errors = []
        if cert["m"] != m:
            errors.append(f"m {cert['m']}, expected {m}")
        if not all(cert["verification"].values()):
            errors.append("a verification clause failed")
        return errors

    return check


def unit_baton_in(subset: dict) -> Check:
    """The extracted points lie in the subset at distances |s - t|."""
    elements = {tuple(e) for e in subset["elements"]}

    def check(cert: dict) -> list[str]:
        points = [tuple(Fraction(c) for c in p) for p in cert["points"]]
        if len(points) != subset["k"] + 1:
            return [f"{len(points)} points, expected {subset['k'] + 1}"]
        errors = []
        if not all(p in elements for p in points):
            errors.append("an extracted point is not in the subset")
        for s, t in itertools.combinations(range(len(points)), 2):
            if max(abs(a - b) for a, b in zip(points[s], points[t])) != t - s:
                errors.append(f"points {s},{t} not at distance {t - s}")
        return errors

    return check


# -- command lists --------------------------------------------------------


def instances(workload: str, seed: int) -> list[Instance]:
    if workload == "chi-copies":
        return [
            Instance("chi-3x3-unit2", ("chi", "--grid", "3,3", "--metric", "{unit2}", "--budget", "1000"),
                     "chromatic", True, chi_bracketed(64, 3), "color_count"),
        ]
    if workload == "chi-search":
        return [
            Instance("chi-5x2-baton14", ("chi", "--grid", "5,2", "--metric", "{baton14}"),
                     "chromatic", False, chi_proved(3), "color_count"),
            # Capped: the full proof of chi = 4 takes 4 s or more, too long to
            # time several times in a run.
            Instance("chi-5x2-baton12-capped", ("chi", "--grid", "5,2", "--metric", "{baton12}",
                                                "--budget", "30000"),
                     "chromatic", True, chi_bracketed(36, 3), "color_count"),
            Instance("chi-3x2", ("chi", "--grid", "3,2"),
                     "chromatic", False, chi_proved(3), "color_count"),
        ]
    if workload == "cover-exact":
        return [
            Instance("cover-3-2-3", ("cover", "--m", "3", "--d", "2", "--n", "3", "--exact"),
                     "torus_cover", False, cover_sized(5, 5, True), "size"),
            Instance("cover-45-15-2", ("cover", "--m", "45", "--d", "15", "--n", "2", "--exact"),
                     "torus_cover", False, cover_sized(9, 9, True), "size"),
            # Counting bound 21 to the greedy cover's 25.
            Instance("cover-9-2-2", ("cover", "--m", "9", "--d", "2", "--n", "2", "--exact",
                                     "--budget", "150000"),
                     "torus_cover", True, cover_sized(21, 25, False), "size"),
        ]
    if workload == "color-certs":
        return [
            Instance("color-unit2-asym", ("color", "--metric", "{unit2}", "--n", "2", "--asymptotic"),
                     "periodic_coloring", False, coloring_cells(191, 2), "class_count"),
            Instance("color-unit2-n5", ("color", "--metric", "{unit2}", "--n", "5", "--seed", str(seed)),
                     "periodic_coloring", False, coloring_cells(3, 5), "class_count"),
            Instance("anchors-faithful", ("anchors", "--steps", "1,1/2,1/3", "--faithful"),
                     "anchor_sequence", False, anchors_built(2453), None),
            Instance("extract-k3", ("extract", "--subset", "{subset}", "--k", str(SUBSET_K)),
                     "copy_embedding", False, unit_baton_in(dense_subset(seed)), None),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("chi-copies", "chi-search", "cover-exact", "color-certs")
