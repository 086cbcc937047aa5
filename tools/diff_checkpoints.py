"""Checkpoint differential: record every finalized checkpoint of a test
selection, part by part, and diff two recordings.

It is a pytest plugin and a CLI.  As a plugin (``-p diff_checkpoints``
with this directory on ``PYTHONPATH``, plus ``--record-checkpoints
PATH``) it wraps ``CheckpointStore.finalize`` and writes, for every
checkpoint a test finalizes, one digest per part:

- ``keyed/<op>``: an operator's keyed state, every key-group blob;
- ``scalar/<op>/<subtask>[/<field>]``: one subtask's scalar state, per
  field when it is a dict;
- ``sources/<source>``: the source's split positions;
- ``sinks/<sink>``: the sink's rows as of the cut.

As a CLI it runs the plugin over a named selection and prints what
differs, field by field::

    python tools/diff_checkpoints.py test_coordinated_chaos \\
        test_store_chaos --against 0468551

``--against <sha>`` records the same selection on a ``git archive`` of
that commit as well (this file's plugin, that tree's ``src/`` and
tests) and diffs the two; without it, the selection is recorded twice
here, which shows whether the recording itself repeats.  A selection
is pytest arguments; a bare module name such as ``test_store_chaos``
means that file under ``tests/``.  Marker filters are lifted, so the
chaos tiers run too.  Hypothesis runs derandomized and without its
example database, and ``PYTHONHASHSEED`` is pinned, so both sides draw
the same examples.  The exit status says whether the runs succeeded,
never whether the recordings agree: this is a tool, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any

import pytest

REPO = Path(__file__).resolve().parent.parent
PLUGIN = "diff_checkpoints"
KINDS = ("keyed", "scalar", "sources", "sinks")


def parts(checkpoint: Any) -> dict[str, str]:
    """One digest per part of a ``ParallelCheckpoint``: the
    coordinator's own payload digest, shortened."""
    from repro.streaming.coordinator import _digest

    def digest(obj: Any) -> str:
        return _digest(obj)[:16]

    out = {}
    for op, groups in checkpoint.keyed_state.items():
        out[f"keyed/{op}"] = digest(sorted(groups.items()))
    for op, states in checkpoint.scalar_state.items():
        for idx, state in enumerate(states):
            if isinstance(state, dict):
                for field, value in state.items():
                    out[f"scalar/{op}/{idx}/{field}"] = digest(value)
            else:
                out[f"scalar/{op}/{idx}"] = digest(state)
    for source, positions in checkpoint.source_positions.items():
        out[f"sources/{source}"] = digest(sorted(positions.items()))
    for sink, rows in checkpoint.sink_elements.items():
        out[f"sinks/{sink}"] = digest(rows)
    return out


# -- the plugin ---------------------------------------------------------------


def pytest_addoption(parser: Any) -> None:
    parser.addoption("--record-checkpoints", metavar="PATH", default=None,
                     help="write a digest of every finalized checkpoint "
                          "to PATH (JSON)")


def pytest_configure(config: Any) -> None:
    path = config.getoption("--record-checkpoints")
    if path:
        config.pluginmanager.register(Recorder(Path(path)),
                                      "checkpoint-recorder")


class Recorder:
    """Wraps ``CheckpointStore.finalize`` for one pytest session and
    files each finalized checkpoint under the test that finalized it,
    in finalize order."""

    def __init__(self, path: Path) -> None:
        from hypothesis import settings
        from repro.streaming.coordinator import CheckpointStore

        settings.register_profile(PLUGIN, derandomize=True, database=None)
        settings.load_profile(PLUGIN)
        self.path = path
        self.test: str | None = None
        self.records: dict[str, list[dict[str, str]]] = {}
        finalize = CheckpointStore.finalize
        recorder = self

        def recording_finalize(store, checkpoint, manifest):
            finalize(store, checkpoint, manifest)
            if recorder.test is not None:
                recorder.records.setdefault(recorder.test, []).append(
                    parts(checkpoint))
        CheckpointStore.finalize = recording_finalize

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item: Any, nextitem: Any):
        self.test = item.nodeid
        yield
        self.test = None

    def pytest_sessionfinish(self) -> None:
        self.path.write_text(json.dumps(self.records, sort_keys=True))


# -- recording and diffing ----------------------------------------------------


def record(tree: Path, selection: list[str], out: Path) -> dict:
    """Run the selection in ``tree`` under the plugin; the recording."""
    args = []
    for arg in selection:
        if not arg.startswith("-") and "/" not in arg and "::" not in arg:
            matches = sorted((tree / "tests").rglob(f"{arg}.py"))
            if matches:
                args.extend(str(m.relative_to(tree)) for m in matches)
                continue
        args.append(arg)
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(Path(__file__).parent)])}
    cmd = [sys.executable, "-m", "pytest", "-p", PLUGIN,
           "--record-checkpoints", str(out), "-p", "no:cacheprovider",
           "-q", "-m", "", *args]
    result = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                            text=True)
    if result.returncode != 0 or not out.exists():
        sys.stdout.write(result.stdout[-4000:] + result.stderr[-4000:])
        raise SystemExit(f"diff_checkpoints: the selection failed in {tree}")
    return json.loads(out.read_text())


def diff(here: dict, there: dict) -> dict:
    """Compare two recordings part by part.

    Returns ``checkpoints`` (paired / only here / only there) and, per
    part — keyed by kind and name with the subtask index dropped, so
    ``scalar/win/fired`` counts every subtask — how many paired
    checkpoints agree (``same``) or not (``differ``), and how many hold
    it on one side only (``only_here`` / ``only_there``), and under
    ``tests`` the tests where a part is not identical.
    """
    checkpoints = Counter()
    table: dict[str, Counter] = {}
    tests: dict[str, set] = {}
    for test in sorted(set(here) | set(there)):
        mine, theirs = here.get(test, []), there.get(test, [])
        checkpoints["paired"] += min(len(mine), len(theirs))
        checkpoints["only_here"] += max(0, len(mine) - len(theirs))
        checkpoints["only_there"] += max(0, len(theirs) - len(mine))
        for a, b in zip(mine, theirs):
            for part in sorted(set(a) | set(b)):
                kind, _, rest = part.partition("/")
                bits = rest.split("/")
                if kind == "scalar" and len(bits) > 1:
                    del bits[1]  # the subtask index
                name = f"{kind}/{'/'.join(bits)}"
                row = table.setdefault(name, Counter())
                if part not in b:
                    outcome = "only_here"
                elif part not in a:
                    outcome = "only_there"
                else:
                    outcome = "same" if a[part] == b[part] else "differ"
                row[outcome] += 1
                if outcome != "same":
                    tests.setdefault(name, set()).add(test)
    return {"checkpoints": dict(checkpoints),
            "parts": {p: dict(c) for p, c in sorted(table.items())},
            "tests": {p: sorted(t) for p, t in sorted(tests.items())}}


def differences(result: dict) -> list[str]:
    """The parts that are not identical on both sides."""
    return [p for p, c in result["parts"].items()
            if c.get("differ") or c.get("only_here") or c.get("only_there")]


def summary(result: dict, here: str, there: str) -> str:
    c = result["checkpoints"]
    lines = [f"checkpoints: {c.get('paired', 0)} paired, "
             f"{c.get('only_here', 0)} only in {here}, "
             f"{c.get('only_there', 0)} only in {there}",
             f"{'part':<44} {'same':>7} {'differ':>7} {'only here':>10}"
             f" {'only there':>11}"]
    for kind in KINDS:
        for part, n in result["parts"].items():
            if part.split("/")[0] == kind:
                lines.append(f"{part:<44} {n.get('same', 0):>7} "
                             f"{n.get('differ', 0):>7} "
                             f"{n.get('only_here', 0):>10} "
                             f"{n.get('only_there', 0):>11}")
    gone = differences(result)
    lines.append("identical in every part" if not gone else
                 f"{len(gone)} part(s) differ: {', '.join(gone)}")
    for part in gone:
        lines.append(f"  {part} differs in:")
        lines.extend(f"    {test}" for test in result["tests"][part])
    return "\n".join(lines)


def archive(sha: str, dest: Path) -> Path:
    """``git archive`` of ``sha`` unpacked under ``dest``."""
    tar = dest / "tree.tar"
    subprocess.run(["git", "-C", str(REPO), "archive", "-o", str(tar), sha],
                   check=True)
    tree = dest / sha
    with tarfile.open(tar) as handle:
        handle.extractall(tree)
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("selection", nargs="+",
                        help="pytest arguments; a bare module name means "
                             "that file under tests/")
    parser.add_argument("--against", metavar="SHA",
                        help="diff against this commit (default: a second "
                             "recording of this tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        here = record(REPO, args.selection, tmp / "here.json")
        if args.against:
            there_name = args.against
            there = record(archive(args.against, tmp), args.selection,
                           tmp / "there.json")
        else:
            there_name = "a second run"
            there = record(REPO, args.selection, tmp / "there.json")
    print(summary(diff(here, there), "this tree", there_name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
