"""End-to-end benchmark of the log -> engine -> store -> overlay path.

    python3 benchmarks/e2e/run.py --workload ward-backfill --seed 1 \\
        --seconds 30 --trace 0

runs one workload and prints every end-to-end metric by name and unit
(``--trace 1``: a second, traced pass and every per-layer metric), then
one JSON object as the last line of standard output.  ``--smoke`` runs
tiny sizes; ``--sets 2 --runs 5`` is the noise mode that produced
``NOISE.md``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
HISTORY = OUT / "history.jsonl"
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]

from calibration import Phase, quartile_spread  # noqa: E402  (no repro)

#: what ``setup_s`` times the import of: the program, and the two
#: benchmark modules that import it
PROGRAM_MODULES = {"repro", "pipeline", "workloads"}
#: sizes that --seconds scales, with the key of the block they fill
SCALED = {"chunks": None, "frames": "frames", "queries": "queries",
          "tail_ticks": "ticks", "ticks": "ticks"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_config(workload: str, *, smoke: bool, seconds: float | None) -> dict:
    """One workload's flat configuration: the shared constants, its
    sizes, the smoke overrides, and ``--seconds`` applied."""
    raw = json.loads((HERE / "config.json").read_text())
    cfg = {k: v for k, v in raw.items() if k not in ("workloads", "smoke")}
    sizes = dict(raw["workloads"][workload])
    if smoke:
        over = raw["smoke"]
        cfg.update({k: v for k, v in over.items() if k != "workloads"})
        sizes.update(over["workloads"][workload])
    if seconds is not None and seconds != cfg["run_seconds"]:
        # never below what the percentile guard needs, in whole blocks
        scale = seconds / cfg["run_seconds"]
        floor = cfg["percentile"]["min_samples"]
        for name, block in SCALED.items():
            if name in sizes:
                if block is None:
                    sizes[name] = max(2, round(sizes[name] * scale))
                else:
                    per = sizes["block"][block]
                    want = max(floor, round(sizes[name] * scale))
                    sizes[name] = -(-want // per) * per
    cfg.update(sizes)
    cfg["sizes"] = sizes
    return cfg


def stamp(cfg: dict, seed: int) -> dict:
    from platform_stamp import git_sha, platform_stamp

    return {"git_sha": git_sha(), **platform_stamp(), "seed": seed,
            "sizes": cfg["sizes"], "CAL_REF_MS": cfg["cal_ref_ms"],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _forget_program() -> None:
    """Drop the program's modules so the next import runs their code
    again; the interpreter's own modules and numpy stay loaded, so only
    the first import of a process also pays for those."""
    for name in list(sys.modules):
        if name.split(".")[0] in PROGRAM_MODULES:
            del sys.modules[name]


def run_workload(workload: str, seed: int, cfg: dict, trace: bool) -> dict:
    """Set up, run the untraced pass (and the traced one), and return
    the full result record."""
    setup = Phase(cfg["cal_ref_ms"], cfg["cal_n"], cfg["cal_repeats"])
    repeats = 1 if trace else cfg["setup_repeats"]
    import inputs
    import metrics
    import spans
    imports = []
    for _ in range(repeats):
        _forget_program()
        with setup.unit() as unit:
            import workloads
            from pipeline import World
        imports.append(unit)
    worlds = []
    for _ in range(repeats):
        with setup.unit() as unit:
            data = inputs.generate(workload, seed, cfg)
            workloads.warm_up(data, cfg, spans.NullRecorder())
            world = World(data, cfg, spans.NullRecorder())
        worlds.append(unit)
    setup_s, setup_raw_s = (
        sum(statistics.median(getattr(u, field) for u in units)
            for units in (imports, worlds)) / 1e9
        for field in ("corrected_ns", "raw_ns"))

    guard = cfg["percentile"]
    untraced = workloads.run_pass(data, cfg, world)
    rss = metrics.peak_rss_mb()
    record = {
        "workload": workload, "trace": int(trace), **stamp(cfg, seed),
        "ops_attempted": untraced.ops_attempted,
        "ops_failed": untraced.ops_failed,
        "oracle_digest": untraced.oracle.digest(),
        "end_to_end": {"setup_s": setup_s,
                       **metrics.end_to_end(untraced, guard),
                       "peak_rss_mb": rss},
        "raw": {"setup_s": setup_raw_s,
                **metrics.end_to_end(untraced, guard, corrected=False),
                "peak_rss_mb": rss},
        "host": metrics.host(untraced),
        "wall_s": {"setup": sum(u.raw_ns for u in setup.units) / 1e9,
                   **untraced.wall_s},
    }
    if trace:
        # the untraced world is garbage now; drop it before the clock
        # of the traced pass can see it collected
        untraced.world = world = None
        gc.unfreeze()
        gc.collect()
        rec = spans.SpanRecorder()
        traced = workloads.run_pass(data, cfg, World(data, cfg, rec))
        record["ops_attempted"] += traced.ops_attempted
        record["ops_failed"] += traced.ops_failed
        record["per_layer"] = metrics.per_layer(untraced, traced, rec.spans,
                                                guard)
        rec.write(OUT / f"trace-{workload}.json",
                  {k: record[k] for k in ("workload", "git_sha", "seed")})
    return record


def report(record: dict, spec: dict) -> None:
    """Every metric by name and unit."""
    from tableprint import print_table

    print_table(
        f"{record['workload']}  seed={record['seed']}  "
        f"ops {record['ops_attempted']:,} attempted, "
        f"{record['ops_failed']} failed  "
        f"oracle {record['oracle_digest'][:12]}",
        ["end-to-end metric", "unit", "corrected", "raw wall-clock"],
        [[m["name"], m["unit"], f"{record['end_to_end'][m['name']]:.4f}",
          f"{record['raw'][m['name']]:.4f}"] for m in spec["end_to_end"]])
    print("host: " + "  ".join(f"{k.split('.', 1)[1]}={v:.4g}"
                               for k, v in record["host"].items()))
    print("wall: " + "  ".join(f"{k}={v:.1f}s"
                               for k, v in record["wall_s"].items()))
    if "per_layer" in record:
        print_table(
            f"per layer, traced pass "
            f"(spans: {OUT / ('trace-' + record['workload'] + '.json')})",
            ["per-layer metric", "unit", "value"],
            [[m["name"], m["unit"], f"{record['per_layer'][m['name']]:.4f}"]
             for m in spec["per_layer"]])


def result_line(record: dict, spec: dict) -> str:
    """The driver's contract: one JSON object, the last line of stdout."""
    section, values = (("per_layer", record["per_layer"])
                       if record["trace"] else
                       ("end_to_end", record["end_to_end"]))
    return json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in spec[section]},
    })


def append_history(record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


# -- noise mode ---------------------------------------------------------------

def noise(args: argparse.Namespace, spec: dict) -> int:
    """``--sets S --runs R``: S sets of R runs per workload, back to
    back, each run its own process and its own seed.  Prints, per
    metric, corrected and raw: each set's median, the difference
    between the set medians, the quartile spread, and the bound."""
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    results: dict[tuple[str, int], list[dict]] = {}
    seed = args.seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for workload in names:
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "0"], capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    return proc.returncode
                last = HISTORY.read_text().rstrip().rsplit("\n", 1)[-1]
                results.setdefault((workload, s), []).append(json.loads(last))
                print(f"set {s + 1} seed {seed} {workload}: done",
                      file=sys.stderr)
            seed += 1
    lines = noise_table(results, names, args.sets, spec)
    print("\n".join(lines))
    (OUT / "noise.md").write_text("\n".join(lines) + "\n")
    return 0


def noise_table(results: dict, names: list[str], sets: int, spec: dict
                ) -> list[str]:
    """Per workload and metric: each set's median, the difference
    between the first and last set's medians, and the quartile spread
    over all runs — for the corrected values and for raw wall-clock."""
    head = ["workload", "metric", "unit"]
    for label in ("", "raw "):
        head += [f"{label}set {s + 1} median" for s in range(sets)]
        head += [f"{label}median diff", f"{label}spread (all runs)"]
    head.append("bound")
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for workload in names:
        for m in spec["end_to_end"]:
            row = [workload, m["name"], m["unit"]]
            for column in ("end_to_end", "raw"):
                by_set = [[r[column][m["name"]]
                           for r in results[(workload, s)]]
                          for s in range(sets)]
                medians = [statistics.median(v) for v in by_set]
                everything = [x for v in by_set for x in v]
                row += [f"{median:.4g}" for median in medians]
                row.append(f"{100 * abs(medians[-1] - medians[0]) / medians[0]:.1f} %")
                row.append(f"{100 * quartile_spread(everything):.1f} %"
                           if len(everything) > 1 else "-")
            row.append(f"{100 * m['bound']:.0f} %")
            lines.append("| " + " | ".join(row) + " |")
    return lines


# -- entry point ----------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="scales the sizes of config.json, which are "
                             "tuned to run_seconds of timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, relaxed percentile guard, oracle "
                             "on; numbers are not comparable")
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.sets:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return noise(args, spec)
    if args.workload == "all" and not args.smoke:
        parser.error("--workload is required (\"all\" only with --smoke "
                     "or --sets)")
    failed = 0
    for workload in names if args.workload == "all" else [args.workload]:
        cfg = load_config(workload, smoke=args.smoke, seconds=args.seconds)
        record = run_workload(workload, args.seed, cfg, bool(args.trace))
        record["smoke"] = args.smoke
        append_history(record)
        report(record, spec)
        failed += record["ops_failed"]
        print(result_line(record, spec))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
