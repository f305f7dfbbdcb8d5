"""Regression table of exact grid chromatic numbers.

The CSV under tests/data freezes every (k, n) pair the exact solver has
certified, together with the pigeonhole lower bound and the periodic
coloring upper bound. This test re-derives all three columns from
scratch, so any solver or bound regression shows up as a diff against
the table.
"""

import csv
import pathlib

from maxram.chromatic import grid_chromatic, pigeonhole_lower_bound
from maxram.colorings import avoidance_coloring
from maxram.metric import Baton

TABLE = pathlib.Path(__file__).parent / "data" / "chi_values.csv"


def load_rows():
    with TABLE.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_table_is_nonempty_and_well_formed():
    rows = load_rows()
    assert len(rows) == 10
    for row in rows:
        assert set(row) == {"k", "n", "metric_id", "chi", "lower", "upper"}
        assert row["metric_id"] == "unit_baton"
        assert int(row["lower"]) <= int(row["chi"]) <= int(row["upper"])


def test_every_row_rederives():
    for row in load_rows():
        k, n = int(row["k"]), int(row["n"])
        space = Baton.unit(k).as_metric_space()
        cert = grid_chromatic(k, n, space)
        assert cert.optimal, (k, n)
        assert cert.color_count == int(row["chi"]), (k, n)
        assert pigeonhole_lower_bound(k, n) == int(row["lower"]), (k, n)
        upper = 2**n if k == 1 else avoidance_coloring(space, n).class_count
        assert upper == int(row["upper"]), (k, n)
