"""Shared plumbing for the ``BENCH_streaming.json`` bench family.

Every streaming bench (p1 throughput, p4 parallel, p7 autoscale, p8
store, p9 geo) reports into one baseline file that the ``tools/check_*``
gates floor-check.  The merge discipline lives here so the benches
cannot drift apart:

- each bench owns exactly one *section* key (plus ``{section}_config``);
  merging never clobbers a sibling bench's section;
- a merge stamps ``{section}_stamp`` (``git_sha`` + ``platform``) for
  its own section only, so re-running one bench never relabels the
  numbers of another;
- ``bench_parser`` standardizes the ``--out`` / ``--events`` flags.

``bench_p1_throughput.py`` reports several sections (``throughput``,
``obs_overhead``, …) and merges each the same way.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from platform_stamp import git_sha, platform_stamp

__all__ = ["DEFAULT_OUT", "bench_parser", "load_baseline",
           "merge_section"]

DEFAULT_OUT = Path(__file__).parent / "BENCH_streaming.json"


def bench_parser(description: str | None,
                 *, events_default: int | None = None,
                 ) -> argparse.ArgumentParser:
    """The standard bench CLI: ``--out`` always, ``--events`` when the
    bench scales with stream length."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    if events_default is not None:
        parser.add_argument("--events", type=int, default=events_default)
    return parser


def load_baseline(out: Path) -> dict:
    """The current merged baseline, or an empty one."""
    if out.exists():
        return json.loads(out.read_text())
    return {}


def merge_section(out: Path, section: str, results: dict) -> dict:
    """Merge one bench's ``results`` into the shared baseline.

    ``results`` must carry the bench's own data under ``results[section]``
    and its knobs under ``results["config"]``.  Only this bench's keys
    (data, config, provenance stamp) are replaced; every sibling's
    survive, labels included.
    """
    merged = load_baseline(out)
    merged[section] = results[section]
    merged[f"{section}_config"] = results.get("config", {})
    merged[f"{section}_stamp"] = {"git_sha": git_sha(),
                                  "platform": platform_stamp()}
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\nresults merged into {out}")
    return merged
