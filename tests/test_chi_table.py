"""Regression table of exact grid chromatic numbers.

The CSV under tests/data freezes every (k, n) pair the exact solver has
certified, together with the pigeonhole lower bound and the periodic
coloring upper bound. This test re-derives all three columns from
scratch, so any solver or bound regression shows up as a diff against
the table.
"""

import csv
import pathlib

from maxram import (
    Baton,
    grid_chromatic,
    pigeonhole_lower_bound,
    upper_bound_value,
)

TABLE = pathlib.Path(__file__).parent / "data" / "chi_values.csv"


def load_rows():
    with TABLE.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_table_is_nonempty_and_well_formed():
    rows = load_rows()
    assert len(rows) == 9
    for row in rows:
        assert set(row) == {"k", "n", "metric_id", "chi", "lower", "upper"}
        assert row["metric_id"] == "unit_baton"
        assert int(row["lower"]) <= int(row["chi"]) <= int(row["upper"])


def test_every_row_rederives():
    for row in load_rows():
        k, n = int(row["k"]), int(row["n"])
        report = grid_chromatic(k, n)
        assert report.certificate.optimal, (k, n)
        assert report.certificate.color_count == int(row["chi"]), (k, n)
        assert pigeonhole_lower_bound(k, n) == int(row["lower"]), (k, n)
        if k == 1:
            upper = 2**n
        else:
            space = Baton.unit(k).as_metric_space()
            upper = upper_bound_value(space, n, variant="U2").value
        assert upper == int(row["upper"]), (k, n)
