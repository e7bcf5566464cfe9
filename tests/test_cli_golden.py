"""Byte-exact stdout of every subcommand in both formats.

Each case runs in-process in CSV and in JSON and must reproduce
tests/golden/<case>.<format> exactly. No test run rewrites these files, so
a diff of them is the record of every output byte a change moves.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dlh.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(GOLDEN / "config.json")  # Ex' = 0.3, Ey' = 0.7: a nonzero nu

CASES = {
    "derive": ("derive",),
    "derive_config": ("derive", "--config", CONFIG),
    "spectrum": ("spectrum",),
    "spectrum_small": ("spectrum", "--n", "1", "--m", "2"),
    "displace": ("displace", "--config", CONFIG, "--n-max", "4", "--m-max", "1"),
    "displace_excited": ("displace", "--n", "1", "--m", "1", "--nu-re", "0.3", "--nu-im", "-0.2",
                         "--n-max", "5", "--m-max", "2"),
    "connection": ("connection", "--param", "B"),
    "connection_window": ("connection", "--param", "lambda", "--n", "1", "--window", "2..4", "--config", CONFIG),
    "phase_c1": ("phase", "--named", "C1"),
    "phase_box": ("phase", "--named", "ADCHEFA", "--Ey2", "0.5"),
    "holonomy": ("holonomy", "--named", "ABCHEFA"),
    "holonomy_window": ("holonomy", "--named", "ADCHEFA", "--window", "1..2", "--steps", "64", "--target", "0"),
    "oracle_check": ("oracle-check", "--grid-points", "128"),
    "oracle_check_default": ("oracle-check",),  # 256 points: the grid of the oracle_grid benchmark
    "sweep_c1": ("sweep", "--named", "C1", "--sweep", "area=0.5,2.0"),
    "sweep_box": ("sweep", "--named", "ABCHEFA", "--sweep", "lam2=2.0,4.0"),
    "sweep_window": ("sweep", "--named", "ABCHGFA", "--window", "0..1", "--steps", "64",
                     "--sweep", "Ey2=0.5,1.0", "--sweep", "B2=2.0,4.0"),
}
FORMATS = ("csv", "json")
# the payload entry that each subcommand's CSV writes as its table
TABLES = {"spectrum": "rows", "sweep": "rows", "displace": "coefficients", "connection": "matrix", "holonomy": "matrix"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(capsys, case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
    rc = main([*CASES[case], "--format", fmt])
    assert (rc, capsys.readouterr().out.encode()) == (0, expected)


def test_every_case_has_both_golden_files():
    files = {p.name for p in GOLDEN.iterdir()} - {"config.json"}
    assert files == {f"{case}.{fmt}" for case in CASES for fmt in FORMATS}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _flatten(value, name: str = ""):
    """(name, text) leaves of a JSON value: dict keys in sorted order, list items by index."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{name}_{key}" if name else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{name}_{i}")
    else:
        yield name, _render(value)


def _json_name(csv_name: str) -> str:
    # a complex leaf is name_re, name_im in CSV and the pair [re, im] in JSON
    for suffix, index in (("_re", "_0"), ("_im", "_1")):
        if csv_name.endswith(suffix):
            return csv_name[: -len(suffix)] + index
    return csv_name


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_is_the_json_flattened(case):
    payload = json.loads((GOLDEN / f"{case}.json").read_text())
    lines = (GOLDEN / f"{case}.csv").read_text().splitlines()
    table = TABLES.get(CASES[case][0])
    if table is None:
        assert lines[0] == "quantity,value"
        leaves = [line.split(",", 1) for line in lines[1:]]
    else:
        comments = [line[2:].split(" = ", 1) for line in lines if line.startswith("# ")]
        leaves, (header, *rows) = comments, [line.split(",") for line in lines[len(comments):]]
    assert [(_json_name(k), v) for k, v in leaves] == list(_flatten({k: v for k, v in payload.items() if k != table}))
    if table is None:
        return
    entries = payload.pop(table)
    if table == "rows":
        assert all(set(header) == set(record) for record in entries)
        assert rows == [[_render(record[k]) for k in header] for record in entries]
        return
    assert header[-2:] == ["re", "im"]
    cells = np.reshape(entries, (-1, 2))
    assert [row[-2:] for row in rows] == [[_render(float(re)), _render(float(im))] for re, im in cells]
    if table == "matrix":
        lo, size = payload["window"][0], len(entries)
        labels = [(lo + i, lo + j) for i in range(size) for j in range(size)]
    else:
        labels = [divmod(i, payload["m_max"] + 1) for i in range(len(entries))]
    assert header[:-2] == (["row", "col"] if table == "matrix" else ["n", "m"])
    assert [tuple(map(int, row[:-2])) for row in rows] == labels
