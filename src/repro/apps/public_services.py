"""Public-services application (Section 3.4, Figures 2 and 9).

Three services on the convergence pipeline:

- **Traffic safety** — VANET beacons stream in; per-vehicle threat
  assessment computes time-to-collision with the leader and raises AR
  warnings, including "X-ray" warnings for vehicles hidden behind others.
- **Security screening** (Figure 9) — a queueing model where AR overlays
  of analyzed profiles cut per-passenger verification time; throughput
  and waiting times come from the discrete-event kernel.
- **Civil maintenance** (Figure 2) — excavation progress diff overlays
  and per-role subsurface infrastructure views (electrician vs plumber).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pipeline import ARBigDataPipeline
from ..datagen.buildings import ExcavationSite
from ..datagen.traffic import Beacon, RingRoadSim
from ..render.scene import Annotation, SceneGraph
from ..simnet.kernel import Simulator
from ..simnet.queueing import ProcessingQueue, QueuedTask
from ..util.errors import PipelineError

__all__ = ["PublicServicesApp", "ThreatAssessment", "ScreeningResult",
           "RoleView"]

BEACONS_TOPIC = "city.vanet"


@dataclass(frozen=True)
class ThreatAssessment:
    """One vehicle's warning state."""

    vehicle_id: str
    leader_id: str
    gap_m: float
    closing_mps: float
    ttc_s: float  # time to collision (inf when opening)

    @property
    def warning(self) -> bool:
        return self.ttc_s < 4.0  # typical forward-collision threshold


@dataclass(frozen=True)
class ScreeningResult:
    """Queueing outcome of one screening configuration."""

    mode: str
    passengers: int
    mean_wait_s: float
    p95_wait_s: float
    throughput_per_min: float
    makespan_s: float


@dataclass(frozen=True)
class RoleView:
    """A per-role filtered infrastructure view (collective intelligence
    of Section 3.4)."""

    role: str
    visible: int
    hidden: int


class PublicServicesApp:
    """City services over the convergence pipeline."""

    def __init__(self, pipeline: ARBigDataPipeline) -> None:
        self.pipeline = pipeline
        pipeline.create_topic(BEACONS_TOPIC, partitions=8)

    # -- traffic safety ------------------------------------------------------

    def ingest_beacons(self, beacons: list[Beacon]) -> int:
        for beacon in beacons:
            self.pipeline.ingest(
                BEACONS_TOPIC,
                {"vehicle": beacon.vehicle_id, "x": beacon.x,
                 "y": beacon.y, "speed": beacon.speed_mps,
                 "heading": beacon.heading_rad},
                key=beacon.vehicle_id, timestamp=beacon.timestamp)
        return len(beacons)

    def assess_threats(self, sim: RingRoadSim) -> list[ThreatAssessment]:
        """Time-to-collision of every vehicle with its leader."""
        states = sim.states()
        n = len(states)
        out = []
        for i, state in enumerate(states):
            lead = states[(i + 1) % n]
            gap = (lead.s_m - state.s_m) % sim.ring
            gap = max(gap - 4.0, 0.01)
            closing = state.speed_mps - lead.speed_mps
            ttc = gap / closing if closing > 1e-6 else float("inf")
            out.append(ThreatAssessment(
                vehicle_id=state.vehicle_id, leader_id=lead.vehicle_id,
                gap_m=float(gap), closing_mps=float(closing),
                ttc_s=float(ttc)))
        return out

    def blind_spot_warnings(self, sim: RingRoadSim,
                            lookahead: int = 3) -> list[str]:
        """Vehicles slowed hard within ``lookahead`` positions ahead —
        invisible behind the intervening cars without VANET "X-ray"."""
        states = sim.states()
        n = len(states)
        warned = []
        for i, state in enumerate(states):
            for j in range(2, lookahead + 1):  # skip the direct leader
                ahead = states[(i + j) % n]
                if ahead.speed_mps < 0.4 * max(state.speed_mps, 0.1):
                    warned.append(state.vehicle_id)
                    break
        return warned

    # -- security screening (Figure 9) -------------------------------------------

    def run_screening(self, rng: np.random.Generator, passengers: int = 200,
                      arrival_rate_per_s: float = 0.5, lanes: int = 2,
                      mode: str = "ar",
                      arrivals: list[float] | None = None,
                      ) -> ScreeningResult:
        """Queueing comparison: manual ID checks vs AR-overlaid profiles.

        A manual check takes 8 s on average.  AR mode: the analyzed
        profile is already on the agent's view, so service takes 2.5 s
        except for the 5 % of flagged exceptions that fall back to
        manual inspection.  Pass ``arrivals`` (absolute times) to compare
        modes on an identical passenger sequence.
        """
        if mode not in ("manual", "ar"):
            raise PipelineError(f"unknown screening mode {mode!r}")
        if arrivals is not None and len(arrivals) != passengers:
            raise PipelineError("arrivals must have one time per passenger")
        sim = Simulator()
        queue = ProcessingQueue(sim, cores=lanes, name=f"screen-{mode}")
        t = 0.0
        for i in range(passengers):
            if arrivals is not None:
                t = float(arrivals[i])
            else:
                t += float(rng.exponential(1.0 / arrival_rate_per_s))
            if mode == "manual":
                service = float(rng.gamma(4.0, 8.0 / 4.0))
            else:
                if rng.random() < 0.05:
                    service = float(rng.gamma(4.0, 8.0 / 4.0)) + 2.5
                else:
                    service = float(rng.gamma(2.0, 2.5 / 2.0))
            sim.schedule_at(t, lambda s=service, k=i: queue.submit(
                QueuedTask(name=f"pax-{k}", service_time=s)))
        sim.run()
        waits = np.array([task.wait_time for task in queue.completed])
        makespan = max(task.finished_at for task in queue.completed)
        return ScreeningResult(
            mode=mode, passengers=passengers,
            mean_wait_s=float(waits.mean()),
            p95_wait_s=float(np.percentile(waits, 95)),
            throughput_per_min=60.0 * passengers / makespan,
            makespan_s=float(makespan))

    # -- civil maintenance (Figure 2) ------------------------------------------------

    def excavation_overlay(self, site: ExcavationSite) -> SceneGraph:
        """Annotations over cells that deviate from the design by more
        than the site's tolerance."""
        scene = SceneGraph()
        diff = site.diff()
        for iy in range(site.ny):
            for ix in range(site.nx):
                d = float(diff[iy, ix])
                if abs(d) <= site.tolerance_m:
                    continue
                kind = "dig" if d > 0 else "overdig"
                scene.add(Annotation(
                    annotation_id=f"exc-{ix}-{iy}",
                    anchor=np.array([ix * site.cell_m, iy * site.cell_m,
                                     -float(site.current[iy, ix])]),
                    text=f"{d:+.1f} m", kind=kind,
                    priority=abs(d),
                    width_px=40.0, height_px=14.0))
        return scene

    def role_views(self, utilities: list[dict]) -> list[RoleView]:
        """Per-role subsurface views: each worker sees their own lines.

        ``utilities`` rows: {"id", "kind" ('electrical'|'water'|'gas'),
        "x", "y", "depth"}; role mapping is kind == role's trade.
        """
        trades = {"electrician": "electrical", "plumber": "water",
                  "gas-fitter": "gas"}
        views = []
        for role, kind in sorted(trades.items()):
            visible = sum(1 for u in utilities if u["kind"] == kind)
            hidden = len(utilities) - visible
            views.append(RoleView(role=role, visible=visible, hidden=hidden))
        return views
