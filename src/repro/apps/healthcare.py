"""Healthcare application (Section 3.3, Figure 8).

Vitals stream through the event log into per-(patient, vital) anomaly
detectors; alarms become bedside AR annotations ("in-situ display of
relevant information when required").  Remote diagnosis augments a
live-streamed patient view with EHR content across a network link, with
the end-to-end latency budget measured against the interactivity cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analytics.anomaly import Alarm, EwmaDetector, ThresholdDetector
from ..context.entities import SemanticEntity
from ..core.pipeline import ARBigDataPipeline
from ..datagen.health import VITALS, Patient, VitalSample
from ..simnet.kernel import Simulator
from ..simnet.network import LINK_PRESETS, Link, LinkSpec
from ..util.errors import PipelineError

__all__ = ["HealthcareApp", "DetectionOutcome", "RemoteDiagnosisStats",
           "CollaborativeStats"]

VITALS_TOPIC = "health.vitals"
ALARMS_TOPIC = "health.alarms"


@dataclass(frozen=True)
class DetectionOutcome:
    """Did we catch a scripted episode, and how fast?"""

    patient_id: str
    vital: str
    onset_s: float
    detected_at_s: float | None

    @property
    def detected(self) -> bool:
        return self.detected_at_s is not None

    @property
    def lead_delay_s(self) -> float:
        """Seconds from onset to first alarm (inf when missed)."""
        if self.detected_at_s is None:
            return float("inf")
        return self.detected_at_s - self.onset_s


@dataclass
class RemoteDiagnosisStats:
    """Latency accounting for a remote AR consult."""

    frames: int = 0
    deadline_misses: int = 0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.latencies_s)) if self.latencies_s else 0.0

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.frames if self.frames else 0.0


@dataclass
class CollaborativeStats:
    """Outcome of a multi-doctor virtual operating room session."""

    doctors: int
    findings_published: int
    propagation_delays_s: list[float] = field(default_factory=list)

    @property
    def mean_propagation_s(self) -> float:
        return (float(np.mean(self.propagation_delays_s))
                if self.propagation_delays_s else 0.0)

    @property
    def p95_propagation_s(self) -> float:
        return (float(np.percentile(self.propagation_delays_s, 95))
                if self.propagation_delays_s else 0.0)


class HealthcareApp:
    """Ward monitoring + remote diagnosis on the convergence pipeline."""

    def __init__(self, pipeline: ARBigDataPipeline,
                 patients: list[Patient]) -> None:
        self.pipeline = pipeline
        self.patients = {p.patient_id: p for p in patients}
        pipeline.create_topic(VITALS_TOPIC, partitions=8)
        pipeline.create_topic(ALARMS_TOPIC)
        for patient in patients:
            pipeline.add_entity(SemanticEntity(
                entity_id=patient.patient_id, entity_type="patient",
                position=np.array([patient.bed[0], patient.bed[1], 1.0]),
                name=patient.patient_id,
                tags={"age": patient.age, "ward": patient.ward,
                      "conditions": ",".join(patient.conditions)}))
        pipeline.interpreter.register_default("vital-alarm")
        pipeline.interpreter.register_default("ehr-summary")
        self._detectors: dict[tuple[str, str], EwmaDetector] = {}
        self._hard_limits: dict[tuple[str, str], ThresholdDetector] = {}
        self.alarms: list[tuple[str, Alarm]] = []

    def _detector(self, patient_id: str, vital: str) -> EwmaDetector:
        key = (patient_id, vital)
        if key not in self._detectors:
            self._detectors[key] = EwmaDetector(threshold=5.0,
                                                warmup=50)
            spec = VITALS[vital]
            self._hard_limits[key] = ThresholdDetector(low=spec.low,
                                                       high=spec.high)
        return self._detectors[key]

    # -- monitoring --------------------------------------------------------

    def ingest_vitals(self, samples: list[VitalSample]) -> int:
        """Stream vitals; raises AR alarms as they fire."""
        raised = 0
        for sample in samples:
            if sample.patient_id not in self.patients:
                raise PipelineError(f"unknown patient {sample.patient_id!r}")
            self.pipeline.ingest(
                VITALS_TOPIC,
                {"patient": sample.patient_id, "vital": sample.vital,
                 "value": sample.value},
                key=f"{sample.patient_id}:{sample.vital}",
                timestamp=sample.timestamp)
            detector = self._detector(sample.patient_id, sample.vital)
            limits = self._hard_limits[(sample.patient_id, sample.vital)]
            alarm = detector.add(sample.value, sample.timestamp)
            hard = limits.add(sample.value, sample.timestamp)
            for fired in (alarm, hard):
                if fired is None:
                    continue
                raised += 1
                self.alarms.append((sample.patient_id, fired))
                self.pipeline.ingest(
                    ALARMS_TOPIC,
                    {"patient": sample.patient_id, "vital": sample.vital,
                     "kind": fired.kind, "value": fired.value},
                    key=sample.patient_id, timestamp=fired.timestamp)
                self.pipeline.interpret_and_publish([{
                    "tag": "vital-alarm", "subject": sample.patient_id,
                    "value": f"{sample.vital}={fired.value:.1f}",
                    "priority": 10.0}])
        return raised

    def detection_outcomes(self) -> list[DetectionOutcome]:
        """Match scripted episodes to raised alarms (F8's lead time)."""
        outcomes = []
        for patient in self.patients.values():
            for episode in patient.episodes:
                hits = [a for pid, a in self.alarms
                        if pid == patient.patient_id
                        and episode.onset_s <= a.timestamp <= episode.end_s]
                detected_at = min((a.timestamp for a in hits), default=None)
                outcomes.append(DetectionOutcome(
                    patient_id=patient.patient_id, vital=episode.vital,
                    onset_s=episode.onset_s, detected_at_s=detected_at))
        return outcomes

    def detect_compound(self) -> list:
        """CEP over the vitals topic: tachycardia (heart rate above 110)
        followed by hypotension (systolic BP below 95) within 600 s per
        patient — the compound deterioration signature single-vital
        thresholds miss.

        Returns the :class:`~repro.streaming.cep.PatternMatch` list.
        """
        from ..streaming.cep import PatternOperator, PatternStep
        from ..streaming.connectors import log_source

        pattern = PatternOperator("deterioration", [
            PatternStep("tachycardia",
                        lambda v: (v.get("vital") == "heart_rate"
                                   and v.get("value", 0) > 110.0)),
            PatternStep("hypotension",
                        lambda v: (v.get("vital") == "systolic_bp"
                                   and v.get("value", 999) < 95.0)),
        ], within_s=600.0)
        def build(builder):
            (builder.source("vitals", log_source(self.pipeline.log,
                                                 VITALS_TOPIC))
                    .key_by(lambda v: v["patient"])
                    .apply(pattern)
                    .sink("matches"))
        return self.pipeline.run_job(build, "compound-alarms")["matches"]

    # -- tiered serving store ----------------------------------------------

    def build_serving_store(self, *, parallelism: int = 1,
                            injector=None):
        """Stream the vitals topic into a tiered serving store, exactly
        once: the hot tier answers "latest vitals for this patient" for
        the bedside overlay, the analytical tier backs the ward
        dashboard.  Returns the :class:`~repro.store.TieredStore`."""
        from ..store import serve_topic

        store, report = serve_topic(
            self.pipeline.log, VITALS_TOPIC, parallelism=parallelism,
            metric_fn=lambda v: v["value"], injector=injector,
            name="health-serving")
        self.serving_store = store
        self.serving_report = report
        return store

    def vitals_dashboard(self, window_s: float = 60.0,
                         agg: str = "mean") -> dict:
        """Analytical-tier ward dashboard: per-(patient, vital) tumbling
        aggregate over the committed history."""
        store = getattr(self, "serving_store", None)
        if store is None:
            raise PipelineError("call build_serving_store() first")
        return store.tumbling(window_s, agg)

    # -- bedside overlay ----------------------------------------------------

    def publish_ehr_overlay(self, patient_id: str) -> int:
        """EHR summary anchored at the bed ("virtual viewfinder")."""
        patient = self.patients.get(patient_id)
        if patient is None:
            raise PipelineError(f"unknown patient {patient_id!r}")
        summary = (f"age {patient.age}; "
                   f"{', '.join(patient.conditions) or 'no conditions'}")
        bound = self.pipeline.interpret_and_publish([{
            "tag": "ehr-summary", "subject": patient_id,
            "value": summary, "priority": 5.0}])
        return bound.bound

    # -- remote diagnosis -----------------------------------------------------

    def remote_diagnosis(self, rng: np.random.Generator,
                         link: LinkSpec | str = "wan",
                         frames: int = 300) -> RemoteDiagnosisStats:
        """Live-stream 60 kB frames to a remote doctor, overlay 2 kB of
        EHR content, return the annotated view; measure the interactive
        budget.

        150 ms is the usual interactivity cap for remote consultation
        video; the paper's claim is that cloud connectivity can meet it.
        """
        if isinstance(link, str):
            try:
                link = LINK_PRESETS[link]
            except KeyError:
                raise PipelineError(f"unknown link preset {link!r}") from None
        channel = Link(link, rng)
        stats = RemoteDiagnosisStats()
        for _ in range(frames):
            latency = channel.round_trip_time(60_000.0, 2_000.0)
            stats.frames += 1
            stats.latencies_s.append(latency)
            if latency > 0.150:
                stats.deadline_misses += 1
        return stats

    # -- collaborative virtual operating room (Sec 3.3 future work) ------

    def collaborative_consult(self, rng: np.random.Generator,
                              patient_id: str,
                              doctor_links: dict[str, str | LinkSpec],
                              duration_s: float = 600.0,
                              finding_rate_per_s: float = 0.02,
                              sync_period_s: float = 1.0,
                              ) -> CollaborativeStats:
        """Doctors at different sites annotate one shared patient view.

        Each doctor publishes 2 kB findings at Poisson times; a finding
        reaches the shared dataset after that doctor's uplink delay and
        becomes visible to each peer at the peer's next sync (period +
        downlink delay).  The measured propagation delay — publish to
        all-peers-visible — is the collaboration latency the virtual
        operating room lives or dies by.
        """
        if patient_id not in self.patients:
            raise PipelineError(f"unknown patient {patient_id!r}")
        if len(doctor_links) < 2:
            raise PipelineError("collaboration needs at least two doctors")
        channels = {}
        for doctor, link in sorted(doctor_links.items()):
            if isinstance(link, str):
                try:
                    link = LINK_PRESETS[link]
                except KeyError:
                    raise PipelineError(
                        f"unknown link preset {link!r}") from None
            channels[doctor] = Link(link, rng)

        sim = Simulator()
        stats = CollaborativeStats(doctors=len(channels),
                                   findings_published=0)
        # finding id -> (publish time, set of doctors still waiting)
        pending: dict[int, tuple[float, set[str]]] = {}
        shared_at: dict[int, float] = {}  # arrival at the shared dataset
        finding_seq = iter(range(10**9))

        def publish(doctor: str) -> None:
            finding_id = next(finding_seq)
            stats.findings_published += 1
            peers = set(channels) - {doctor}
            pending[finding_id] = (sim.now, peers)
            uplink = channels[doctor].transfer_time(2_000.0)
            sim.schedule_after(
                uplink, lambda f=finding_id: shared_at.setdefault(f,
                                                                  sim.now))

        def sync(doctor: str) -> None:
            downlink = channels[doctor].transfer_time(2_000.0)

            def deliver() -> None:
                for finding_id in list(pending):
                    published_at, waiting = pending[finding_id]
                    if finding_id not in shared_at:
                        continue  # not uploaded yet
                    if shared_at[finding_id] > sim.now - downlink:
                        continue  # arrived after this sync started
                    if doctor in waiting:
                        waiting.discard(doctor)
                        if not waiting:
                            stats.propagation_delays_s.append(
                                sim.now - published_at)
                            del pending[finding_id]

            sim.schedule_after(downlink, deliver)

        # Schedule Poisson findings per doctor and periodic syncs.
        for doctor in sorted(channels):
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / finding_rate_per_s))
                if t >= duration_s:
                    break
                sim.schedule_at(t, lambda d=doctor: publish(d))
            sim.schedule_every(sync_period_s,
                               lambda d=doctor: sync(d),
                               until=duration_s * 2)
        sim.run(until=duration_s * 2)
        return stats
