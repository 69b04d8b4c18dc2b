"""Every shipped config reproduces its checked-in report.

tests/golden/<config>/ holds the report.json and rows.csv that
configs/<config>.ini writes.  A rerun must match them exactly on every
string, int, bool and null, and on floats to 1e-9 relative: another numpy
or BLAS build may move the last of the 12 written digits, but no change of
the code's numbers passes unnoticed.  Floats below 1e-12 on both sides are
rounding noise (the orthogonality and reconstruction deviations of the
finite model, which a different summation order changes in every digit) and
match each other.  After an intended change of a report, write its golden
anew with ``coherentlab <kind> --config configs/<config>.ini --out
tests/golden/<config>``.
"""

import configparser
import json
import math
import pathlib

import pytest

from coherentlab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
GOLDEN = ROOT / "tests" / "golden"
REL_TOL = 1e-9
NOISE = 1e-12


def close(got: float, want: float) -> bool:
    return (math.isclose(got, want, rel_tol=REL_TOL)
            or max(abs(got), abs(want)) < NOISE)


def assert_same(got, want, where: str) -> None:
    """got equals want, floats within close(), recursing into lists and dicts."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} != {len(want)} entries"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def read_csv(path: pathlib.Path) -> tuple:
    """The '#'-prefixed JSON metadata block and the comma-split table rows."""
    lines = path.read_text().splitlines()
    meta = json.loads("\n".join(ln[2:] for ln in lines if ln.startswith("# ")))
    return meta, [ln.split(",") for ln in lines if not ln.startswith("#")]


def assert_same_cell(got: str, want: str, where: str) -> None:
    if got == want:
        return
    try:
        ok = close(float(got), float(want))
    except ValueError:  # a string, a bool or a blank cell differs
        ok = False
    assert ok, f"{where}: {got!r} != {want!r}"


def test_every_shipped_config_has_a_golden_report():
    assert [c.stem for c in CONFIGS] == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_matches_its_golden_report(config, tmp_path):
    parser = configparser.ConfigParser()
    parser.read(config)
    [kind] = parser.sections()
    cli.run_experiment(kind, str(config), str(tmp_path))
    golden = GOLDEN / config.stem
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == sorted(p.name for p in golden.iterdir()) == ["report.json", "rows.csv"]
    assert_same(json.loads((tmp_path / "report.json").read_text()),
                json.loads((golden / "report.json").read_text()), "report.json")
    got_meta, got_rows = read_csv(tmp_path / "rows.csv")
    want_meta, want_rows = read_csv(golden / "rows.csv")
    assert_same(got_meta, want_meta, "rows.csv metadata")
    assert len(got_rows) == len(want_rows), "rows.csv row count"
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        assert len(got) == len(want), f"rows.csv line {i}: {got} != {want}"
        for j, (g, w) in enumerate(zip(got, want)):
            assert_same_cell(g, w, f"rows.csv line {i} cell {j}")
