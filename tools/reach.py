"""Runtime census: every ``src/`` def that a product run enters.

Lint (r) counts a def as reached when non-test code uses its *name*, so
a common name (``join``, ``reduce``, ``start``) keeps a whole feature
alive that no run ever executes.  This tool counts what runs instead.
It runs every non-test entry point of the repository, each in its own
process under ``sys.setprofile``:

- the examples, and ``python -m repro`` with its two demos;
- the experiment benches (``bench_a*``, ``bench_fig*``, ``bench_t*``)
  under pytest with their shape assertions, and with pytest-benchmark
  disabled: a timed round pauses every profiler, a disabled one runs
  the bench once, in plain sight;
- the streaming benches: P1, P4 and A2 downsized by ``--events``, P7
  and P9 as they are, and P8 with its sizes scaled down in process;
- the end-to-end benchmark's smoke run (``benchmarks/e2e/run.py
  --smoke``);
- the gate tools' in-process demos (``--skip-tests``).  ``check_perf``
  is left out: its wall-clock floors cannot hold under a profiler, and
  the benches it runs are entries here already.

It writes the sorted ``path:qualname`` of every def under ``src/`` that
any of them entered to ``tools/reach.txt`` (module bodies, class
bodies, lambdas and comprehensions are not defs).  Every entry point
must exit 0: a crash fails the tool and leaves the file as it was, so a
broken entry point can never shrink the census.  Benches write their
results into a temporary directory, never into the committed baseline.

    python tools/reach.py    # regenerate; exit 1 if it changed

The tier-1 lint ``test_every_def_runs_in_a_product_run`` reads the
committed file.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / "tools" / "reach.txt"
BENCH = "benchmarks"
#: entry points run at once
JOBS = 2

#: bench_p8's sizes for the census: every code path of the full run, in
#: seconds instead of minutes (the dashboard's group-by range must stay
#: inside its rows)
P8_SIZES = {
    "N_KEYS": 40_000, "BUILD_EPOCH_ROWS": 10_000, "INGEST_BATCHES": 3,
    "INGEST_ROWS": 1_000, "LOOKUPS_PER_BATCH": 100, "HOT_EPOCHS": 4,
    "HOT_LOOKUPS": 500, "DASH_ROWS": 4_000, "DASH_GROUP_ROWS": 1_500,
    "DASH_QUERIES": 3, "APPLY_SHAPES": (("big", 1, 1_000),
                                        ("small", 20, 20)),
    "APPLY_REPEATS": 1,
}


def _entry_points() -> dict[str, tuple]:
    """name -> (kind, target, arguments), longest first so that two
    workers finish together.  ``{out}`` is a file in the run's
    temporary directory."""
    entries: dict[str, tuple] = {
        "e2e-smoke": ("script", f"{BENCH}/e2e/run.py", ["--smoke"]),
        "experiment-benches": ("pytest", None, [
            *sorted(str(p.relative_to(REPO)) for pattern in
                    ("bench_a*.py", "bench_fig*.py", "bench_t*.py")
                    for p in (REPO / BENCH).glob(pattern)),
            "--benchmark-disable", "-s", "-q", "-p", "no:cacheprovider"]),
        "bench_p8": ("p8", f"{BENCH}/bench_p8_store.py", []),
        "bench_p1": ("script", f"{BENCH}/bench_p1_throughput.py",
                     ["--events", "5000", "--out", "{out}"]),
        "bench_p4": ("script", f"{BENCH}/bench_p4_parallel.py",
                     ["--events", "5000", "--out", "{out}"]),
        "bench_a2": ("script", f"{BENCH}/bench_a2_log_scaling.py",
                     ["--events", "5000", "--out", "{out}"]),
        "bench_p7": ("script", f"{BENCH}/bench_p7_autoscale.py",
                     ["--out", "{out}"]),
        "bench_p9": ("script", f"{BENCH}/bench_p9_geo.py",
                     ["--sessions", "2000", "--out", "{out}"]),
        "check_robustness": ("script", "tools/check_robustness.py",
                             ["--skip-tests"]),
        "check_datafault": ("script", "tools/check_robustness.py",
                            ["--datafault", "--skip-tests"]),
        "check_elasticity": ("script", "tools/check_elasticity.py",
                             ["--skip-tests"]),
        "check_store": ("script", "tools/check_store.py",
                        ["--skip-tests", "--skip-bench"]),
        "check_geo": ("script", "tools/check_geo.py",
                      ["--skip-tests", "--skip-bench"]),
        "check_obs": ("script", "tools/check_obs.py", ["--skip-overhead"]),
        "repro": ("module", "repro", []),
        "repro-demo-geo": ("module", "repro", ["demo-geo"]),
        "repro-demo-datafault": ("module", "repro", ["demo-datafault"]),
    }
    for path in sorted((REPO / "examples").glob("*.py")):
        entries[f"example:{path.stem}"] = (
            "script", str(path.relative_to(REPO)), [])
    return entries


# -- one entry point, in a child process --------------------------------------


def _run_entry(kind: str, target: str | None, args: list[str]) -> int:
    """Run one entry point in this process; its exit status."""
    if kind == "pytest":
        import pytest
        return int(pytest.main(args=args))
    if kind == "module":
        sys.argv = ["python -m " + target, *args]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
        return 0
    path = REPO / target
    sys.path.insert(0, str(path.parent))
    if kind == "p8":
        spec = importlib.util.spec_from_file_location("bench_p8", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, value in P8_SIZES.items():
            assert hasattr(module, name), name
            setattr(module, name, value)
        module.report(module.run_experiment())
        return 0
    sys.argv = [str(path), *args]
    runpy.run_path(str(path), run_name="__main__")
    return 0


def child(name: str, record: Path, scratch: Path) -> int:
    kind, target, args = _entry_points()[name]
    args = [a.replace("{out}", str(scratch / "bench.json")) for a in args]
    entered: dict[int, object] = {}

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = _run_entry(kind, target, args)
    except SystemExit as exc:
        code = exc.code
        status = code if isinstance(code, int) else (0 if code is None
                                                     else 1)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    record.write_text(json.dumps(sorted(_defs(entered.values()))))
    return status


def _defs(codes) -> set[str]:
    """``path:qualname`` of the function code objects under ``src/``."""
    root = str(SRC) + os.sep
    out = set()
    for code in codes:
        if not code.co_filename.startswith(root) \
                or not code.co_flags & inspect.CO_NEWLOCALS:
            continue  # outside src/, or a module or class body
        qualname = code.co_qualname
        if qualname.rpartition(".")[2].startswith("<"):
            continue  # a lambda or a comprehension
        path = Path(code.co_filename).relative_to(REPO).as_posix()
        out.add(f"{path}:{qualname}")
    return out


# -- the census ---------------------------------------------------------------


def census() -> tuple[set[str], list[str]]:
    """Run every entry point, :data:`JOBS` at a time; the defs entered
    and the entry points that failed."""
    names = list(_entry_points())
    reached: set[str] = set()
    failed: list[str] = []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(REPO)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        running: list[tuple[str, subprocess.Popen, Path, float]] = []
        while names or running:
            while names and len(running) < JOBS:
                name = names.pop(0)
                work = Path(tmp) / name.replace(":", "_")
                work.mkdir()
                log = (work / "log").open("w")
                proc = subprocess.Popen(
                    [sys.executable, __file__, "--child", name,
                     "--record", str(work / "record.json")],
                    cwd=REPO, env=env, stdout=log, stderr=subprocess.STDOUT)
                log.close()
                running.append((name, proc, work, time.perf_counter()))
            time.sleep(0.05)
            for entry in [r for r in running if r[1].poll() is not None]:
                running.remove(entry)
                name, proc, work, started = entry
                seconds = time.perf_counter() - started
                record = work / "record.json"
                if proc.returncode == 0 and record.exists():
                    reached.update(json.loads(record.read_text()))
                    print(f"  {name:<36} {seconds:6.1f} s  ok")
                    continue
                failed.append(name)
                print(f"  {name:<36} {seconds:6.1f} s  FAILED "
                      f"(exit {proc.returncode})")
                tail = (work / "log").read_text().splitlines()[-25:]
                print("\n".join(f"    | {line}" for line in tail))
    return reached, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.record, args.record.parent)
    started = time.perf_counter()
    reached, failed = census()
    elapsed = time.perf_counter() - started
    if failed:
        print(f"reach: FAILED in {elapsed:.0f} s: {', '.join(failed)} "
              f"did not exit 0; {OUT.relative_to(REPO)} left as it was")
        return 2
    text = "".join(f"{site}\n" for site in sorted(reached))
    old = OUT.read_text() if OUT.exists() else ""
    OUT.write_text(text)
    if text != old:
        before = set(old.splitlines())
        print(f"reach: {OUT.relative_to(REPO)} was stale "
              f"(+{len(reached - before)} / -{len(before - reached)} "
              f"defs); rewrote it, commit the new file")
        return 1
    print(f"reach: {len(reached)} defs entered, {OUT.relative_to(REPO)} "
          f"up to date ({elapsed:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
