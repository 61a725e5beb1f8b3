"""Differential test of the loaders' two readers.

Each example is the demo's climate, NPP or trajectory CSV text, or the
shipped density table, after a few random edits. ``dataio._fast_table``
(numpy's C loadtxt) must either decline the text or return exactly the
arrays and line numbers that the row parser (csv plus ``int`` and
``float``) reads from it, and each public loader must give the same
result, or raise the same DataError text, as it does with the fast reader
turned off. CI runs this file with ``--hypothesis-profile=ci`` for more
examples.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import socchange as sc
from socchange import dataio
from socchange.errors import DataError

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"
DENSITY = Path(__file__).resolve().parent / "data" / "density_table1.csv"
SITE = sc.max_deficit(50.0, 23.0)

# cell texts on which csv + int/float and loadtxt could read differently
ODD_CELLS = ("2000.0", "1e3", "1_0", "1_0.5", "99999999999999999999",
             "-99999999999999999999", "9223372036854775808", "+7", "-0",
             "0", "13", "10000", "nan", "-inf", "inf", "1e400", "1e-400",
             "", " ", "x", "0x10", "٣", "1.5\xa0", "\x00", "#", "1,5",
             '"7"', '"1,5"', '"', "2005 1")
EXTRA_LINES = ("", " ", "\t", "#", "# note", ",,,,", "2005", "a,b,c,d,e")
# appended to a row, or to the header as columns no loader reads
TAILS = (",9", ",note", ',"a,b"', ",", ",,", ',"9"')

_ROW = st.integers(0, 10**6)      # taken modulo the row count
_COLUMN = st.integers(0, 10)      # taken modulo the row's cell count
EDITS = st.one_of(
    st.tuples(st.just("set"), _ROW, _COLUMN, st.sampled_from(ODD_CELLS)),
    st.tuples(st.just("pad"), _ROW, _COLUMN, st.sampled_from(" \t\xa0")),
    st.tuples(st.just("quote"), _ROW, _COLUMN),
    st.tuples(st.just("insert"), _ROW, st.sampled_from(EXTRA_LINES)),
    st.tuples(st.just("duplicate"), _ROW),
    st.tuples(st.just("drop"), _ROW),
    st.tuples(st.just("tail"), _ROW, st.sampled_from(TAILS)),
    st.tuples(st.just("short"), _ROW),
    st.tuples(st.just("swap"), _ROW, _ROW),
)


def edit_text(text: str, edits, crlf: bool, keep: int = 0) -> str:
    """``text`` with each edit applied to its lines after the first
    ``keep``, the header included."""
    head, rows = text.splitlines()[:keep], text.splitlines()[keep:]
    for kind, i, *args in edits:
        i %= len(rows) or 1
        if kind == "insert":
            rows.insert(i, args[0])
        elif not rows:
            continue
        elif kind == "duplicate":
            rows.insert(i, rows[i])
        elif kind == "drop":
            del rows[i]
        elif kind == "tail":
            rows[i] += args[0]
        elif kind == "short":
            rows[i] = rows[i].rpartition(",")[0]
        elif kind == "swap":
            j = args[0] % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            cells = rows[i].split(",")
            j = args[0] % len(cells)
            cells[j] = {"set": lambda c: args[1],
                        "pad": lambda c: args[1] + c + args[1],
                        "quote": lambda c: f'"{c}"'}[kind](cells[j])
            rows[i] = ",".join(cells)
    return ("\r\n" if crlf else "\n").join(head + rows) + "\n"


def outcome(load):
    """("ok", result) or ("error", DataError text) of ``load()``."""
    try:
        return "ok", load()
    except DataError as exc:
        return "error", str(exc)


def without_fast_table():
    return mock.patch.object(dataio, "_fast_table", lambda *a, **k: None)


def assert_same_outcome(load, compare):
    fast = outcome(load)
    with without_fast_table():
        rows = outcome(load)
    assert fast[0] == rows[0], (fast, rows)
    if fast[0] == "error":
        assert fast[1] == rows[1]
    else:
        compare(fast[1], rows[1])


def assert_fast_matches_rows(fast: dict, rows: dict):
    assert list(fast) == list(rows)
    for name in fast:
        assert fast[name].dtype.kind == rows[name].dtype.kind, name
        assert np.array_equal(fast[name], rows[name]), name


def assert_same_series(a, b):
    assert a.start_year == b.start_year
    for name in ("temp", "rain", "pet", "acc", "month_days"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_npp(a, b):
    assert list(a.items()) == list(b.items())
    assert all(type(year) is int for year in a)


def assert_same_density(a, b):
    (densities_a, covers_a), (densities_b, covers_b) = a, b
    assert list(densities_a) == list(densities_b)
    for name, density in densities_a.items():
        assert np.array_equal(density.proportions,
                              densities_b[name].proportions), name
    assert list(covers_a) == list(covers_b)
    for name, cover in covers_a.items():
        assert np.array_equal(cover, covers_b[name]), name


def assert_same_trajectory(a, b):
    for name in ("t", "year", "month", "states", "totals"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.meta == b.meta


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@pytest.fixture(scope="module")
def trajectory_text(workdir):
    scenario = dataio.build_scenario(dataio.load_config(DEMO / "scenario.cfg"))
    path = workdir / "demo_trajectory.csv"
    dataio.write_trajectory(path, sc.simulate(scenario))
    return path.read_text()


_SETTINGS = settings(deadline=None)   # the example count comes from the profile
_EDITED = dict(edits=st.lists(EDITS, max_size=4), crlf=st.booleans())


def with_unused_columns(text: str) -> str:
    """``text`` with two more columns, which no loader reads, on every line."""
    head, *rows = text.splitlines()
    return "\n".join([head + ",note,flag", *(row + ",n,1" for row in rows)])


@_SETTINGS
@given(unused=st.booleans(), **_EDITED)
@example(unused=False, edits=[], crlf=False)
@example(unused=False, edits=[("set", 5, 0, "2000.0")], crlf=False)
@example(unused=False, edits=[("quote", 5, 2)], crlf=True)
@example(unused=False, edits=[("set", 5, 2, '"1,5"')], crlf=False)
@example(unused=False, edits=[("drop", 7)], crlf=False)
@example(unused=False, edits=[("drop", 180)], crlf=False)
@example(unused=False, edits=[("duplicate", 7)], crlf=False)
@example(unused=False, edits=[("insert", 3, " ")], crlf=False)
@example(unused=False, edits=[("set", 5, 0, "10000")], crlf=False)
# a finite cell longer than csv's field limit
@example(unused=False, edits=[("set", 5, 2, "0." + "0" * 140000 + "5")],
         crlf=False)
# a short row, its cells made up by a quoted comma or missing only a cell
# that no loader reads
@example(unused=True, edits=[("set", 9, 4, '"1,5"'), ("short", 9)],
         crlf=False)
@example(unused=True, edits=[("short", 9)], crlf=False)
def test_climate_readers_agree(workdir, unused, edits, crlf):
    path = workdir / "climate.csv"
    text = (DEMO / "climate.csv").read_text()
    text = edit_text(with_unused_columns(text) if unused else text, edits,
                     crlf)
    path.write_text(text, newline="")
    text = path.read_text()
    columns = dataio._CLIMATE_COLUMNS, dataio._CLIMATE_OPTIONAL
    fast = dataio._fast_table(text, text.splitlines(), *columns)
    with without_fast_table():
        rows = outcome(lambda: dataio._read_columns(path, text, *columns))
    event(f"fast reader {'declined' if fast is None else 'read'}, "
          f"row parser {rows[0]}"
          + (", bad cell" if rows[0] == "ok" and rows[1][2] else ""))
    if fast is not None:
        assert rows[0] == "ok" and rows[1][2] is None, rows
        assert_fast_matches_rows(fast, rows[1][0])
        assert list(dataio._read_columns(path, text, *columns)[1]) \
            == rows[1][1]
    assert_same_outcome(lambda: sc.load_climate(path, SITE, latitude_deg=41.0),
                        assert_same_series)


@_SETTINGS
@given(**_EDITED)
@example(edits=[], crlf=False)
@example(edits=[("set", 3, 0, "99999999999999999999")], crlf=False)
@example(edits=[("duplicate", 4)], crlf=False)
def test_npp_readers_agree(workdir, edits, crlf):
    path = workdir / "npp.csv"
    path.write_text(edit_text((DEMO / "npp.csv").read_text(), edits, crlf),
                    newline="")
    assert_same_outcome(lambda: sc.load_npp(path, 2005), assert_same_npp)


@_SETTINGS
@given(**_EDITED)
@example(edits=[], crlf=False)
@example(edits=[("set", 9, 3, "1e400")], crlf=False)
@example(edits=[("short", 9)], crlf=False)
def test_trajectory_readers_agree(workdir, trajectory_text, edits, crlf):
    path = workdir / "trajectory.csv"
    path.write_text(edit_text(trajectory_text, edits, crlf, keep=1),
                    newline="")
    assert_same_outcome(lambda: sc.read_trajectory(path),
                        assert_same_trajectory)


@_SETTINGS
@given(**_EDITED)
@example(edits=[], crlf=False)
@example(edits=[("set", 1, 4, "0")], crlf=False)
@example(edits=[("duplicate", 6), ("insert", 2, "")], crlf=False)
@example(edits=[("set", 2, 0, "13"), ("set", 5, 4, "x")], crlf=False)
def test_density_readers_agree(workdir, edits, crlf):
    path = workdir / "density.csv"
    path.write_text(edit_text(DENSITY.read_text(), edits, crlf), newline="")
    assert_same_outcome(lambda: sc.load_density_table(path),
                        assert_same_density)


def test_edits_reach_both_readers(workdir):
    """The demo text is read by the fast reader, and a quoted cell or a
    float-formatted year sends it to the row path."""
    text = (DEMO / "climate.csv").read_text()
    columns = dataio._CLIMATE_COLUMNS, dataio._CLIMATE_OPTIONAL
    assert dataio._fast_table(text, text.splitlines(), *columns) is not None
    for edits in ([("quote", 1, 2)], [("set", 1, 0, "2005.0")]):
        edited = edit_text(text, edits, crlf=False)
        assert dataio._fast_table(edited, edited.splitlines(), *columns) is None
    header_only = text.splitlines()[0] + "\n\n"
    assert dataio._fast_table(header_only, header_only.splitlines(),
                              *columns) is None
