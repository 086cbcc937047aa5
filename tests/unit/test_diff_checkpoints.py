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


def test_the_summary_names_the_tests_only_one_side_recorded():
    """Checkpoints only one recording holds are named by the test that
    finalized them, with how many, on the side that has them."""
    tool = _tool()
    same = {"keyed/win": "a", "sinks/out": "s"}
    here = {"t::kept": [same, same], "t::grew": [same, same, same],
            "t::new": [same]}
    there = {"t::kept": [same, same], "t::grew": [same],
             "t::gone": [same, same]}
    result = tool.diff(here, there)
    assert result["checkpoints"] == {"paired": 3, "only_here": 3,
                                     "only_there": 2}
    assert result["unpaired"] == {
        "only_here": {"t::grew": 2, "t::new": 1},
        "only_there": {"t::gone": 2}}
    assert tool.differences(result) == []
    assert not tool.agree(result)
    text = tool.summary(result, "this tree", "abc1234")
    assert "identical in every part" in text
    lines = text.splitlines()
    here_at = lines.index("checkpoints only in this tree, by test:")
    there_at = lines.index("checkpoints only in abc1234, by test:")
    assert [line.split() for line in lines[here_at + 1:there_at]] \
        == [["2", "t::grew"], ["1", "t::new"]]
    assert [line.split() for line in lines[there_at + 1:]] \
        == [["2", "t::gone"]]
    # two recordings that pair every checkpoint name no test
    assert tool.diff(here, here)["unpaired"] == {"only_here": {},
                                                 "only_there": {}}
