"""Public-services scenario (paper Section 3.4, Figures 2 and 9).

A city operations picture: VANET beacons feed collision warnings
(including X-ray blind-spot warnings through the traffic ahead), an
AR-assisted security checkpoint is compared against manual screening,
and a civil-engineering crew works an excavation site whose
design-vs-as-built diff is overlaid day by day with per-role views.

Run:  python examples/smart_city.py
"""

from repro import ARBigDataPipeline, PipelineConfig
from repro.apps import PublicServicesApp
from repro.datagen import ExcavationSite, RingRoadSim
from repro.util.rng import make_rng


def main() -> None:
    rng = make_rng(47)
    app = PublicServicesApp(ARBigDataPipeline(PipelineConfig(seed=47)))

    # -- traffic: a stalled car creates a shock wave ------------------------
    sim = RingRoadSim(rng, ring_length_m=1500.0)
    sim.force_slowdown(8, start_s=10.0, end_s=120.0, speed_mps=0.3)
    warned_total = set()
    for _step in range(120):  # one minute of traffic
        sim.step()
        app.ingest_beacons(sim.beacons())
        for threat in app.assess_threats(sim):
            if threat.warning:
                warned_total.add(threat.vehicle_id)
    blind = app.blind_spot_warnings(sim, lookahead=4)
    print(f"traffic: {len(warned_total)} vehicles got collision "
          f"warnings; {len(blind)} warned about a hazard hidden "
          f"behind the car ahead (VANET x-ray)")

    # -- security screening --------------------------------------------------
    manual = app.run_screening(rng, passengers=200,
                               arrival_rate_per_s=0.35, mode="manual")
    ar = app.run_screening(rng, passengers=200,
                           arrival_rate_per_s=0.35, mode="ar")
    print(f"\nscreening at 0.35 pax/s: manual waits "
          f"{manual.mean_wait_s:.0f}s ({manual.throughput_per_min:.1f}"
          f"/min) vs AR {ar.mean_wait_s:.1f}s "
          f"({ar.throughput_per_min:.1f}/min)")

    # -- excavation site ------------------------------------------------------
    site = ExcavationSite(rng, nx=30, ny=20)
    print("\nexcavation (design vs as-built):")
    for day in range(0, 15, 3):
        scene = app.excavation_overlay(site)
        print(f"  day {day:2d}: progress {site.progress:5.1%}, "
              f"{site.deviation_cells():4d} cells off-design, "
              f"{len(scene)} overlay annotations")
        for _ in range(3):
            site.excavate_day(fraction=0.25, noise_m=0.05)

    # -- per-role subsurface views ---------------------------------------------
    utilities = (
        [{"id": i, "kind": "electrical", "x": i * 2.0, "y": 0.0,
          "depth": 0.8} for i in range(12)]
        + [{"id": 100 + i, "kind": "water", "x": i * 2.0, "y": 4.0,
            "depth": 1.6} for i in range(9)]
        + [{"id": 200 + i, "kind": "gas", "x": i * 2.0, "y": 8.0,
            "depth": 1.2} for i in range(6)])
    print("\nfield crew role views (own lines only):")
    for view in app.role_views(utilities):
        print(f"  {view.role:12s}: sees {view.visible:2d} lines, "
              f"{view.hidden:2d} filtered out")


if __name__ == "__main__":
    main()
