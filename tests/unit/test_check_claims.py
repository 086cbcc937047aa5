"""``tools/check_claims.py``: how the claims gate reads the experiment
tables.  Every cell but those of the named wall-clock columns must
count, and a wall-clock cell must count for nothing, whatever width it
prints at (tier-1: no bench runs here; ``make claims`` runs them)."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _tool():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        spec = importlib.util.spec_from_file_location(
            "check_claims", ROOT / "tools" / "check_claims.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return tool


def _table(rate, drained="20000"):
    header = "members  records drained  Mrec/s"
    rows = [f"1        {drained.ljust(15)}  {rate}"]
    width = max(len(header), len(rows[0]))
    return "\n".join([
        "", "== A2a ablation: consumer-group scaling over 8 partitions ==",
        header, "-" * width, *rows, "note: work per member shrinks", "."])


def test_every_masked_column_names_a_column_of_the_committed_tables():
    tool = _tool()
    tables = tool.parse_tables(tool.EXPECTED.read_text())
    headers = {t[0].split()[1]: t[1].split(" | ") for t in tables}
    for tag, columns in tool.WALL_CLOCK.items():
        assert set(columns) <= set(headers[tag]), tag
    masked = [line for t in tables for line in t[2:]
              if tool.MASK in line]
    assert len(masked) == 8  # A2a's four rows and A2c's four
    # one table a title, each in bench order
    assert len({t[0] for t in tables}) == len(tables) > 30


def test_a_wall_clock_cell_counts_for_nothing_and_any_other_cell_counts():
    tool = _tool()
    base = tool.parse_tables(_table("0.381"))
    assert base == tool.parse_tables(_table("12.381"))
    assert base != tool.parse_tables(_table("0.381", drained="19999"))
    assert base[0][2] == f"1 | 20000 | {tool.MASK}"
