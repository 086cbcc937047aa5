#!/usr/bin/env python
"""Claims gate: the paper's experiment tables still print what they did.

Runs the experiment benches (``bench_a*``, ``bench_fig*``, ``bench_t*``)
under pytest with their shape assertions, pytest-benchmark disabled so
that each runs once, and compares every table they print with
``benchmarks/experiment_tables.txt`` cell by cell.  The benches are
seeded, so every cell is deterministic except those of the wall-clock
columns named in :data:`WALL_CLOCK`, which are masked on both sides.
It fails on a failing bench, on a table that appears or disappears,
and on any differing title, header, row or note; what it prints does
not depend on the wall clock, so two passing runs print the same.

    python tools/check_claims.py

A change that means to move a table regenerates the file from the
same run and commits the diff (pytest prints one dot a bench, which
the comparison skips):

    PYTHONPATH=src python -m pytest benchmarks/bench_a*.py \\
        benchmarks/bench_fig*.py benchmarks/bench_t*.py \\
        --benchmark-disable -s -q -p no:cacheprovider \\
        | tail -n +2 > benchmarks/experiment_tables.txt
"""

from __future__ import annotations

import difflib
import re
import subprocess
import sys

from gatelib import REPO, Gate, repo_env

EXPECTED = REPO / "benchmarks" / "experiment_tables.txt"
PATTERNS = ("bench_a*.py", "bench_fig*.py", "bench_t*.py")
#: table tag (the title's first word) -> its columns that time the run
WALL_CLOCK = {"A2a": ("Mrec/s",), "A2c": ("us/row", "ratio")}
MASK = "<wall clock>"


def run_benches() -> tuple[int, str]:
    """The benches' exit status and what they printed."""
    benches = sorted(str(p.relative_to(REPO)) for pattern in PATTERNS
                     for p in (REPO / "benchmarks").glob(pattern))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *benches, "--benchmark-disable",
         "-s", "-q", "-p", "no:cacheprovider"],
        cwd=REPO, env=repo_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _cells(line: str, starts: list[int]) -> list[str]:
    return [line[a:b].strip()
            for a, b in zip(starts, [*starts[1:], None])]


def parse_tables(text: str) -> list[list[str]]:
    """Every table in a bench run's output, in order, as lines: the
    title, the headers, one line a row with the cells of
    :data:`WALL_CLOCK` columns masked, and the note.  A table is
    ``tableprint.print_table``'s layout: columns start where their
    headers do, and no cell holds two spaces running."""
    lines = text.splitlines()
    tables = []
    i = 0
    while i < len(lines):
        title = re.fullmatch(r"== (.*) ==", lines[i])
        i += 1
        if title is None:
            continue
        header = lines[i]
        starts = [m.start() for m in re.finditer(r"\S+(?: \S+)*", header)]
        names = _cells(header, starts)
        masked = [c for c, name in enumerate(names)
                  if name in WALL_CLOCK.get(title[1].split()[0], ())]
        table = [title[0], " | ".join(names)]
        i += 2  # the headers and the dashed rule under them
        while i < len(lines) and lines[i] \
                and not lines[i].startswith("== ") \
                and re.fullmatch(r"\.+", lines[i]) is None:
            if lines[i].startswith("note: "):
                table.append(lines[i])
                i += 1
                break
            cells = _cells(lines[i], starts)
            for c in masked:
                cells[c] = MASK
            table.append(" | ".join(cells))
            i += 1
        tables.append(table)
    return tables


def main() -> int:
    gate = Gate("check_claims")
    status, output = run_benches()
    if status != 0:
        print(output[-4000:])
        return gate.fail(f"an experiment bench failed (pytest exit "
                         f"{status})")
    got = parse_tables(output)
    want = parse_tables(EXPECTED.read_text())
    masked = "; ".join(f"{tag} {', '.join(cols)}"
                       for tag, cols in WALL_CLOCK.items())
    print(f"check_claims: {len(got)} tables, "
          f"{sum(len(t) - 2 for t in got)} rows and notes; wall-clock "
          f"columns masked: {masked}")
    if got != want:
        rel = EXPECTED.relative_to(REPO)
        sys.stdout.writelines(difflib.unified_diff(
            [line + "\n" for table in want for line in table],
            [line + "\n" for table in got for line in table],
            str(rel), "this run"))
        return gate.fail(f"the tables differ from {rel}")
    return gate.ok()


if __name__ == "__main__":
    sys.exit(main())
