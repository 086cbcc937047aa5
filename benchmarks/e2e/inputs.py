"""Seeded input generation for the three workloads.

Everything the program will be fed is made here, from ``--seed`` alone,
before any clock starts: rows as plain Python lists (so a timed produce
loop is nothing but ``Producer.send`` calls), the keys each frame looks
up, the dashboard queries, and where every entity stands.  Pure numpy —
no ``repro`` import — so the oracle can be driven from the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Rows", "Lookup", "Query", "Inputs", "generate", "VITALS"]

#: vital -> (population mean, spread); alert priority is the |z|-score
VITALS = {"hr": (75.0, 12.0), "spo2": (96.0, 2.0), "rr": (16.0, 3.0),
          "sbp": (120.0, 15.0), "temp": (36.8, 0.4)}
BAY_BEDS = 4
#: out-of-order arrival stays inside the job's 2 s watermark bound
ARRIVAL_JITTER_S = 1.9


@dataclass
class Rows:
    """One batch of records in arrival order, as arrays (for the
    oracle) and as lists (for the produce loop)."""

    codes: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    keys_l: list[str] = field(repr=False, default_factory=list)
    ts_l: list[float] = field(repr=False, default_factory=list)
    values_l: list[float] = field(repr=False, default_factory=list)

    @classmethod
    def build(cls, keys: list[str], codes, ts, values) -> "Rows":
        codes = np.asarray(codes, dtype=np.int64)
        code_l = codes.tolist()
        return cls(codes, np.asarray(ts, dtype=np.float64),
                   np.asarray(values, dtype=np.float64),
                   [keys[c] for c in code_l], np.asarray(ts).tolist(),
                   np.asarray(values).tolist())

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class Lookup:
    """One point lookup of a frame and how its result is presented."""

    key: str
    code: int
    subject: str
    tag: str
    mean: float
    inv_spread: float


@dataclass(frozen=True)
class Query:
    """One dashboard query: ``tumbling`` when ``window_s`` is set,
    else ``group_by``; both aggregate the mean."""

    window_s: float | None
    start: float | None
    end: float | None
    codes: tuple[int, ...] | None


@dataclass
class Inputs:
    workload: str
    keys: list[str]
    #: (entity id, type, world position) per entity
    entities: list[tuple[str, str, tuple[float, float, float]]]
    tags: list[str]
    windowed: bool
    warmup: Rows
    chunks: list[Rows]
    #: per frame: (camera index, lookups)
    frames: list[tuple[int, tuple[Lookup, ...]]]
    queries: list[Query]
    #: per live tick: (rows, camera index, lookups)
    ticks: list[tuple[Rows, int, tuple[Lookup, ...]]]
    warmup_ticks: list[tuple[Rows, int, tuple[Lookup, ...]]]
    #: in-loop dashboard query of every ``dashboard_every``-th tick
    tick_queries: dict[int, Query]
    #: camera index -> (eye, target)
    cameras: list[tuple[tuple[float, ...], tuple[float, ...]]]


# -- the ward (ward-backfill, ward-live) ------------------------------------

def _ward_layout(patients: int):
    """Patients stand four to a bay; each bay has its own viewpoint."""
    vitals = list(VITALS)
    keys = [f"p{p:03d}:{v}" for p in range(patients) for v in vitals]
    entities, cameras, bay_lookups = [], [], []
    for bay in range(patients // BAY_BEDS):
        origin = bay * 10.0
        cameras.append(((origin, 0.0, 0.0), (origin, 0.0, 5.0)))
        lookups = []
        for bed in range(BAY_BEDS):
            p = bay * BAY_BEDS + bed
            pid = f"p{p:03d}"
            entities.append((pid, "patient",
                             (origin + (bed - 1.5) * 1.5, 0.0, 5.0)))
            for v, name in enumerate(vitals):
                mean, spread = VITALS[name]
                lookups.append(Lookup(keys[p * len(vitals) + v],
                                      p * len(vitals) + v, pid, name,
                                      mean, 1.0 / spread))
        bay_lookups.append(tuple(lookups))
    return keys, entities, cameras, bay_lookups


def _vital_values(rng, codes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    stats = np.array(list(VITALS.values()))
    v = codes % len(VITALS)
    return (stats[v, 0] + offsets[codes]
            + stats[v, 1] * rng.standard_normal(len(codes)))


def _ward_seconds(rng, keys, offsets, first_second: int, seconds: int
                  ) -> Rows:
    """``seconds`` event-seconds of every key, one sample per key per
    second, arriving out of order within the watermark bound."""
    n = len(keys)
    codes = np.tile(np.arange(n), seconds)
    ts = (first_second + np.repeat(np.arange(seconds), n)
          + rng.uniform(0.0, 0.999, size=n * seconds))
    values = _vital_values(rng, codes, offsets)
    order = np.argsort(ts + rng.uniform(0.0, ARRIVAL_JITTER_S, size=len(ts)),
                       kind="stable")
    return Rows.build(keys, codes[order], ts[order], values[order])


def _ward_backfill(rng, cfg: dict) -> Inputs:
    keys, entities, cameras, bays = _ward_layout(cfg["patients"])
    offsets = rng.normal(0.0, 1.0, size=len(keys))
    span = cfg["chunk_seconds"]
    chunks = [_ward_seconds(rng, keys, offsets, c * span, span)
              for c in range(cfg["chunks"])]
    warmup = _ward_seconds(rng, keys, offsets, 0, cfg["warmup_seconds"])
    frames = [(int(b), bays[b])
              for b in rng.integers(0, len(bays), size=cfg["frames"])]
    # one query per ward of 40 patients, over the whole history
    per_ward = 40 * len(VITALS)
    wards = [tuple(range(w, min(w + per_ward, len(keys))))
             for w in range(0, len(keys), per_ward)]
    queries = [Query(cfg["query_window_s"], None, None,
                     wards[i % len(wards)])
               for i in range(cfg["queries"])]
    live_from = cfg["chunks"] * span + 60.0
    ticks = _ward_ticks(rng, keys, offsets, bays, live_from,
                        cfg["tail_ticks"], whole_ward=False)
    warm_ticks = _ward_ticks(rng, keys, offsets, bays, span + 60.0,
                             cfg["warmup_ticks"], whole_ward=False)
    return Inputs("ward-backfill", keys, entities, list(VITALS), True,
                  warmup, chunks, frames, queries, ticks, warm_ticks, {},
                  cameras)


def _ward_ticks(rng, keys, offsets, bays, first_ts: float, n: int, *,
                whole_ward: bool):
    """Live ticks: each refreshes every key of the ward, or one bay's 20
    keys, and then shows that bay."""
    out = []
    for t in range(n):
        bay = int(rng.integers(0, len(bays)))
        codes = (rng.permutation(len(keys)) if whole_ward
                 else np.array([lk.code for lk in bays[bay]]))
        ts = first_ts + t + rng.uniform(0.0, 0.999, size=len(codes))
        rows = Rows.build(keys, codes, ts, _vital_values(rng, codes, offsets))
        out.append((rows, bay, bays[bay]))
    return out


def _ward_live(rng, cfg: dict) -> Inputs:
    keys, entities, cameras, bays = _ward_layout(cfg["patients"])
    offsets = rng.normal(0.0, 1.0, size=len(keys))
    warm_ticks = _ward_ticks(rng, keys, offsets, bays, 0.0,
                             cfg["warmup_ticks"], whole_ward=True)
    live = _ward_ticks(rng, keys, offsets, bays, 0.0, cfg["ticks"],
                       whole_ward=True)
    # a live dashboard shows one bay's last few minutes, per minute;
    # after the run the same panel is swept across the whole history
    bay_codes = [tuple(lk.code for lk in bay) for bay in bays]
    window, span = cfg["query_window_s"], cfg["query_span_s"]
    tick_queries = {
        t: Query(window, max(0.0, t + 1.0 - span), t + 1.0,
                 bay_codes[live[t][1]])
        for t in range(cfg["dashboard_every"] - 1, cfg["ticks"],
                       cfg["dashboard_every"])}
    starts = np.arange(0.0, max(cfg["ticks"] - span, 0.0) + 1.0, window)
    queries = [Query(window, float(starts[i % len(starts)]),
                     float(starts[i % len(starts)] + span),
                     bay_codes[i % len(bay_codes)])
               for i in range(cfg["queries"])]
    empty = Rows.build(keys, [], [], [])
    return Inputs("ward-live", keys, entities, list(VITALS), False, empty,
                  [], [], queries, live, warm_ticks, tick_queries, cameras)


# -- the city (city-passthrough) ---------------------------------------------

CITY_TAG = "dwell"
CITY_DT_S = 0.005


def _city(rng, cfg: dict) -> Inputs:
    n_keys = cfg["sessions"]
    keys = [f"s{i:05d}" for i in range(n_keys)]
    weights = 1.0 / np.arange(1, n_keys + 1) ** cfg["zipf_a"]
    cdf = np.cumsum(weights / weights.sum())

    def draw(size: int) -> np.ndarray:
        """Zipf-distributed key codes by stratified inverse-CDF sampling
        (one uniform per stratum of width 1/size, then shuffled): every
        key's count lands within one of ``size * p``, so how full the hot
        keys leave their shards' memtables — which is what a lookup of
        them costs — does not swing with the seed."""
        u = (np.arange(size) + rng.random(size)) / size
        return rng.permutation(
            np.minimum(np.searchsorted(cdf, u), n_keys - 1))

    positions = np.column_stack([rng.uniform(-3.0, 3.0, n_keys),
                                 rng.uniform(-1.5, 1.5, n_keys),
                                 rng.uniform(5.0, 12.0, n_keys)])
    entities = [(k, "session", tuple(pos))
                for k, pos in zip(keys, positions.tolist())]
    cameras = [((0.0, 0.0, 0.0), (0.0, 0.0, 8.0))]
    mean, spread = 30.0, 20.0

    def lookups_for(codes) -> tuple[Lookup, ...]:
        return tuple(Lookup(keys[c], c, keys[c], CITY_TAG, mean,
                            1.0 / spread) for c in codes)

    def distinct(pool: np.ndarray, spare: np.ndarray, want: int = 20
                 ) -> list[int]:
        seen = list(dict.fromkeys(pool.tolist()))[:want]
        if len(seen) < want:  # a draw dominated by the hottest keys
            seen += [c for c in spare.tolist() if c not in seen][
                :want - len(seen)]
        return seen

    def rows(first_row: int, n: int) -> Rows:
        codes = draw(n)
        ts = (first_row + np.arange(n) + rng.uniform(0.0, 0.9, n)) * CITY_DT_S
        values = rng.lognormal(3.0, 0.6, size=n)
        order = np.argsort(
            ts + rng.uniform(0.0, ARRIVAL_JITTER_S, size=n), kind="stable")
        return Rows.build(keys, codes[order], ts[order], values[order])

    per_chunk = cfg["chunk_rows"]
    chunks = [rows(c * per_chunk, per_chunk) for c in range(cfg["chunks"])]
    warmup = rows(0, cfg["warmup_rows"])
    # frames look up keys the history holds, hot keys more often
    held = np.concatenate([c.codes for c in chunks])
    held_keys = np.unique(held)
    frames = [(0, lookups_for(distinct(
                  held[rng.integers(0, len(held), 80)], held_keys)))
              for _ in range(cfg["frames"])]
    span = per_chunk * CITY_DT_S
    starts = np.arange(0.0, (cfg["chunks"] - 1) * span + 1e-9, span / 2)
    queries = [Query(None, float(starts[i % len(starts)]),
                     float(starts[i % len(starts)] + span), None)
               for i in range(cfg["queries"])]

    def ticks(first_ts: float, n: int):
        out = []
        for t in range(n):
            codes = np.array(distinct(draw(80), held_keys))
            ts = first_ts + t * 0.1 + rng.uniform(0.0, 0.09, len(codes))
            r = Rows.build(keys, codes, ts,
                           rng.lognormal(3.0, 0.6, size=len(codes)))
            out.append((r, 0, lookups_for(codes.tolist())))
        return out

    live = ticks(cfg["chunks"] * span + 60.0, cfg["tail_ticks"])
    warm_ticks = ticks(span + 60.0, cfg["warmup_ticks"])
    return Inputs("city-passthrough", keys, entities, [CITY_TAG], False,
                  warmup, chunks, frames, queries, live, warm_ticks, {},
                  cameras)


_GENERATORS = {"ward-backfill": _ward_backfill, "city-passthrough": _city,
               "ward-live": _ward_live}


def generate(workload: str, seed: int, cfg: dict) -> Inputs:
    """All inputs of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, sorted(_GENERATORS).index(workload)])
    return _GENERATORS[workload](rng, cfg)
