"""repro — reproduction of "When Augmented Reality Meets Big Data"
(Huang, Hui, Peylo; ICDCS 2017).

The paper is a vision paper: big-data backends feeding AR front-ends,
AR as the interface to big data, and three convergence challenges
(timeliness, interpretation, privacy).  This library builds the whole
envisioned system from scratch:

- :mod:`repro.core` — the AR x Big-Data convergence pipeline (the
  contribution), sessions, timeliness control, privacy guard, the
  Figure-5 influence model.
- Substrates: :mod:`repro.eventlog` (Kafka-like), :mod:`repro.streaming`
  (Flink-like), :mod:`repro.vision` (AR SDK), :mod:`repro.sensors`,
  :mod:`repro.render`, :mod:`repro.offload` (CloudRiDAR-like),
  :mod:`repro.privacy`, :mod:`repro.analytics`, :mod:`repro.simnet`.
- :mod:`repro.datagen` — seeded workload generators for every scenario.
- :mod:`repro.apps` — retail, tourism, healthcare, public services.

Quick start::

    from repro import ARBigDataPipeline, PipelineConfig
    pipeline = ARBigDataPipeline(PipelineConfig(seed=7))
    pipeline.create_topic("demo")
    pipeline.ingest("demo", {"reading": 21.5}, key="sensor-1", timestamp=0.0)
"""

from ._lazy import lazy_exports

# lazy: the facade imports most of the library, scipy and networkx, and
# an importer of one substrate (``repro.store``, say) needs none of it
__getattr__, __dir__ = lazy_exports(__name__, {".core": (
    "ARBigDataPipeline", "ARSession", "PipelineConfig", "PrivacyConfig",
    "SharedDataset")})

__version__ = "1.0.0"

__all__ = [
    "ARBigDataPipeline",
    "ARSession",
    "PipelineConfig",
    "PrivacyConfig",
    "SharedDataset",
    "__version__",
]
