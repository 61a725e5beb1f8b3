"""Pinned outputs of the demo commands.

``tests/data/demo_pins.json`` holds, for each command below, its stdout and
for each CSV it writes: the metadata and header lines, the row count, every
k-th data row and the last one, as written. A refactor that moves a number
in these outputs by more than 1e-12 of its column's scale fails here, and
so does any change to a metadata or header line, which are compared whole.
The tolerance, rather than a hash, lets numpy versions differ by an ulp.

The state columns of ``control``'s trajectory files share one scale, the
largest state magnitude across those files. At ε = 0 the manure replaces
the loss and ``simulate_controlled`` returns exact zeros, which the test
checks as such; the pinned ε = 0 rows may keep the round-off (under 1e-16)
of the month loop that the closed form replaced, and a scale of their own
would compare that round-off bit for bit.

Regenerate the pins (only for a deliberate, explained change of output)::

    PYTHONPATH=src python tests/test_demo_pins.py

The regeneration keeps the pinned text of every value, and the pinned
stdout, that the comparison still accepts, so its diff shows only what the
change moved, and the metadata, header and row-count lines it changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest

from socchange.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "data" / "demo" / "scenario.cfg"
PINS = Path(__file__).parent / "data" / "demo_pins.json"

# the seven commands the cli_demo benchmark runs, then two more modes
COMMANDS = (
    ["simulate"],
    ["simulate", "--scheme", "rothc_discrete", "--mode", "absolute"],
    ["sensitivity", "--param", "temp1"],
    ["sensitivity", "--param", "r"],
    ["control", "--epsilon", "0,0.2,0.5,0.8", "--plot"],
    ["equilibrium", "--inputs", "1", "0"],
    ["equilibrium", "--soc", "14.9"],
    ["sensitivity", "--param", "np1"],
    ["simulate", "--mode", "absolute"],
)
ROWS_KEPT = 25          # about this many sampled rows per file, plus the last
REL_TOL = 1e-12
STATE_COLUMNS = ("dpm", "rpm", "bio", "hum", "total")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_command(args: list, out: Path) -> dict:
    """Exit code, stdout and the pinned digest of each CSV written."""
    argv = [args[0], str(CONFIG), *args[1:]]
    if args[0] != "equilibrium":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    text = stdout.getvalue().replace(str(out), "<out>")
    return {"exit": code, "stdout": text,
            "files": {path.name: _pin_csv(path)
                      for path in sorted(out.glob("*.csv"))}}


def _pin_csv(path: Path) -> dict:
    meta, header, *rows = path.read_text().splitlines()
    step = 1 + len(rows) // ROWS_KEPT
    kept = sorted({*range(0, len(rows), step), len(rows) - 1})
    return {"meta": meta, "header": header, "rows": len(rows), "step": step,
            "kept": {str(i): rows[i] for i in kept}}


def _all_outputs() -> dict:
    pins = {}
    for args in COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            pins[" ".join(args)] = run_command(args, Path(out))
    return pins


def text_scale(text: str) -> float:
    """The largest number magnitude in a stdout text."""
    return max((abs(float(x)) for x in _NUMBER.findall(text)), default=0.0)


def assert_text_close(expected: str, actual: str, scale: float) -> None:
    """Same words; each number within one unit of its last printed digit
    or REL_TOL * scale."""
    assert _NUMBER.sub("#", expected) == _NUMBER.sub("#", actual)
    for want, got in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        unit = 10.0 ** Decimal(want).as_tuple().exponent
        assert abs(float(got) - float(want)) <= max(unit, REL_TOL * scale), \
            (want, got)


def _state_cells(header: str, rows) -> list[float]:
    names = header.split(",")
    return [abs(float(row.split(",")[names.index(name)]))
            for row in rows for name in STATE_COLUMNS]


def control_state_scale(files: dict) -> float:
    """Largest state magnitude over the kept rows of control's trajectory
    files (its schedule files have no state columns)."""
    return max(max(_state_cells(pin["header"], pin["kept"].values()))
               for name, pin in files.items()
               if name.startswith("trajectory_"))


def column_scales(pin: dict, state_scale=None) -> list[float]:
    """Each column's scale: the largest kept magnitude in the column, or
    ``state_scale`` for the state columns."""
    kept = [row.split(",") for row in pin["kept"].values()]
    return [state_scale if state_scale is not None and name in STATE_COLUMNS
            else max(abs(float(row[j])) for row in kept)
            for j, name in enumerate(pin["header"].split(","))]


def cell_close(want: str, got: str, scale: float) -> bool:
    return abs(float(got) - float(want)) <= REL_TOL * scale


def assert_csv_close(pin: dict, path: Path, state_scale=None) -> None:
    """Rows within REL_TOL of their column's scale (``column_scales``)."""
    meta, header, *rows = path.read_text().splitlines()
    assert header == pin["header"]
    assert len(rows) == pin["rows"]
    assert meta == pin["meta"]
    scales = column_scales(pin, state_scale)
    for i, want in pin["kept"].items():
        want, got = want.split(","), rows[int(i)].split(",")
        assert len(got) == len(want), i
        for j, (w, g) in enumerate(zip(want, got)):
            assert cell_close(w, g, scales[j]), \
                (path.name, i, header.split(",")[j], w, g)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_pins_cover_every_command(pins):
    assert list(pins) == [" ".join(args) for args in COMMANDS]


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_demo_command_matches_pin(pins, tmp_path, args):
    pin = pins[" ".join(args)]
    result = run_command(args, tmp_path)
    assert result["exit"] == pin["exit"] == 0
    assert_text_close(pin["stdout"], result["stdout"],
                      text_scale(pin["stdout"]))
    assert sorted(result["files"]) == sorted(pin["files"])
    state_scale = None
    if args[0] == "control":
        state_scale = control_state_scale(pin["files"])
        _, header, *rows = (tmp_path / "trajectory_eps0.csv").read_text() \
            .splitlines()
        assert max(_state_cells(header, rows)) == 0.0
    for name, file_pin in pin["files"].items():
        assert_csv_close(file_pin, tmp_path / name, state_scale)


def test_pin_comparison_catches_a_small_shift(pins, tmp_path):
    """A 1e-9 relative move of one pinned value fails the comparison."""
    pin = pins["simulate"]["files"]["trajectory.csv"]
    run_command(["simulate"], tmp_path)
    path = tmp_path / "trajectory.csv"
    lines = path.read_text().splitlines()
    last = 2 + pin["rows"] - 1
    cells = lines[last].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-9))
    lines[last] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AssertionError):
        assert_csv_close(pin, path)


def test_regeneration_with_unchanged_code_rewrites_nothing(pins, tmp_path):
    path = tmp_path / "demo_pins.json"
    write_pins(path, pins)
    assert path.read_bytes() == PINS.read_bytes()


def test_regeneration_rewrites_a_value_the_comparison_rejects(pins):
    moved = json.loads(json.dumps(pins))
    kept = moved["simulate"]["files"]["trajectory.csv"]["kept"]
    last = max(kept, key=int)
    cells = kept[last].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-9))
    kept[last] = ",".join(cells)
    regenerated = regenerate(moved)
    rows = regenerated["simulate"]["files"]["trajectory.csv"]["kept"]
    assert rows[last].split(",")[-1] != cells[-1]
    rows[last] = pins["simulate"]["files"]["trajectory.csv"]["kept"][last]
    assert regenerated == pins


def _keep_close_cells(old: dict, new: dict, state_scale) -> dict:
    """``new``'s pin of one file, with the text of each ``old`` kept cell
    that the comparison accepts; ``new`` whole if the header or the row
    count changed."""
    if (old["header"], old["rows"]) != (new["header"], new["rows"]):
        return new
    scales = column_scales(old, state_scale)
    kept = {}
    for i, row in new["kept"].items():
        want, got = old["kept"][i].split(","), row.split(",")
        kept[i] = row if len(want) != len(got) else ",".join(
            w if cell_close(w, g, scale) else g
            for w, g, scale in zip(want, got, scales))
    return {**new, "kept": kept}


def regenerate(old_pins: dict) -> dict:
    """The demo commands' pins from this code, keeping every old pinned
    value and stdout that ``test_demo_command_matches_pin`` accepts."""
    pins = _all_outputs()
    for command, result in pins.items():
        old = old_pins.get(command)
        if old is None:
            continue
        try:
            assert_text_close(old["stdout"], result["stdout"],
                              text_scale(old["stdout"]))
            result["stdout"] = old["stdout"]
        except AssertionError:
            pass
        state_scale = (control_state_scale(old["files"])
                       if command.startswith("control") else None)
        for name, pin in result["files"].items():
            if name in old["files"]:
                result["files"][name] = _keep_close_cells(
                    old["files"][name], pin, state_scale)
    return pins


def write_pins(path: Path, old_pins: dict) -> None:
    path.write_text(json.dumps(regenerate(old_pins), indent=1) + "\n")


if __name__ == "__main__":
    write_pins(PINS, json.loads(PINS.read_text()))
    print(f"wrote {PINS}")
