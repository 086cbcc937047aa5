"""``tools/diff_checkpoints.py``: the checkpoint differential records
the same digests twice over the same selection under two hash seeds,
and its diff names a part that changed (tier-1; two small pytest runs
in subprocesses)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SELECTION = ["tests/unit/test_supervisor.py", "-k",
             "restartable_failures or crash_in_a_phase"]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "diff_checkpoints", ROOT / "tools" / "diff_checkpoints.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_recordings_of_one_selection_agree(tmp_path):
    tool = _tool()
    first = tool.record(ROOT, SELECTION, tmp_path / "first.json")
    second = tool.record(ROOT, SELECTION, tmp_path / "second.json",
                         hash_seed=1)
    result = tool.diff(first, second)
    assert result["checkpoints"]["paired"] > 0
    assert not result["checkpoints"].get("only_here")
    assert not result["checkpoints"].get("only_there")
    kinds = {part.split("/")[0] for part in result["parts"]}
    assert kinds == {"keyed", "scalar", "sources", "sinks"}
    assert tool.differences(result) == []
    assert tool.agree(result)


def test_the_diff_names_what_changed():
    tool = _tool()
    here = {"t": [{"keyed/win": "a", "scalar/win/0/fired": "1",
                   "scalar/win/1/fired": "2", "sinks/out": "s"}]}
    there = {"t": [{"keyed/win": "a", "scalar/win/0/fired": "1",
                    "scalar/win/1/fired": "3"}],
             "u": [{"sinks/out": "s"}]}
    result = tool.diff(here, there)
    assert result["checkpoints"] == {"paired": 1, "only_here": 0,
                                     "only_there": 1}
    assert result["parts"]["scalar/win/fired"] == {"same": 1, "differ": 1}
    assert result["tests"] == {"scalar/win/fired": ["t"], "sinks/out": ["t"]}
    assert tool.differences(result) == ["scalar/win/fired", "sinks/out"]
    assert not tool.agree(result)
    assert not tool.agree(tool.diff({"t": [{}]}, {"t": [{}, {}]}))
    assert "2 part(s) differ" in tool.summary(result, "here", "there")
