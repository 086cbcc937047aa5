"""Education application (paper intro: AR "for teaching 2nd grade
students" [Freitas & Campos]; Figure 5 includes education among the
influenced fields).

An AR classroom: lesson content pops up on fiducial markers glued to
physical objects (the intro's "virtual pop-up objects on 2D markers"
pattern, done properly); students' quiz results stream through the
pipeline into per-student, per-topic mastery estimates; the review
recommender targets each student's weakest topics — the big-data
personalization the generic "same worksheet for everyone" baseline
lacks.

A simple learning model makes the uplift measurable: reviewing a topic
improves a student's true mastery of it, and targeted review of weak
topics raises the post-test more than untargeted review.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analytics.incremental import RunningStats
from ..context.entities import SemanticEntity
from ..core.pipeline import ARBigDataPipeline
from ..util.errors import PipelineError
from ..vision.camera import CameraIntrinsics, look_at
from ..vision.geometry import estimate_homography
from ..vision.markers import decode_marker, generate_marker
from ..vision.synth import PlanarTarget, render_plane

__all__ = ["Lesson", "Student", "EducationApp", "ReviewOutcome"]

QUIZ_TOPIC = "edu.quiz"
#: a printed marker's side
MARKER_SIZE_M = 0.15
#: topics a student reviews
REVIEW_SLOTS = 2
#: the share of the gap to ceiling mastery one review closes
LEARN_RATE = 0.4


@dataclass(frozen=True)
class Lesson:
    """One marker-anchored lesson station."""

    lesson_id: str
    topic: str
    marker_id: int
    position: tuple[float, float, float]  # classroom coordinates


@dataclass
class Student:
    """A learner with latent per-topic mastery in [0, 1]."""

    student_id: str
    mastery: dict[str, float] = field(default_factory=dict)

    def answer_correctly(self, topic: str,
                         rng: np.random.Generator) -> bool:
        return rng.random() < self.mastery.get(topic, 0.0)


@dataclass(frozen=True)
class ReviewOutcome:
    """Post-test comparison of review strategies."""

    students: int
    targeted_gain: float
    untargeted_gain: float

    @property
    def uplift(self) -> float:
        if self.targeted_gain <= self.untargeted_gain:
            return 0.0
        return min(1.0, (self.targeted_gain - self.untargeted_gain)
                   / max(self.targeted_gain, 1e-9))


class EducationApp:
    """The AR classroom on the convergence pipeline."""

    def __init__(self, pipeline: ARBigDataPipeline,
                 lessons: list[Lesson]) -> None:
        if not lessons:
            raise PipelineError("need at least one lesson")
        ids = [l.lesson_id for l in lessons]
        if len(set(ids)) != len(ids):
            raise PipelineError("duplicate lesson ids")
        self.pipeline = pipeline
        self.lessons = {l.lesson_id: l for l in lessons}
        self._by_marker = {l.marker_id: l for l in lessons}
        pipeline.create_topic(QUIZ_TOPIC)
        for lesson in lessons:
            pipeline.add_entity(SemanticEntity(
                entity_id=lesson.lesson_id, entity_type="lesson",
                position=np.array(lesson.position),
                name=lesson.topic,
                tags={"marker": lesson.marker_id}))
        pipeline.interpreter.register_default("lesson-content")
        pipeline.interpreter.register_default("review-hint")
        # (student, topic) -> correctness stats
        self._mastery_stats: dict[tuple[str, str], RunningStats] = {}

    # -- marker-triggered content ------------------------------------------

    def scan_marker(self, rng: np.random.Generator,
                    lesson_id: str, distance_m: float,
                    intrinsics: CameraIntrinsics,
                    noise_sigma: float = 0.01) -> dict:
        """A student points the tablet at a lesson's marker.

        Renders the marker at the given distance through the camera,
        estimates the rectifying homography from the ground-truth pose
        (registration is the tracker's job; identification is ours) and
        decodes the id.  Content pops up only when decode matches.
        """
        lesson = self.lessons.get(lesson_id)
        if lesson is None:
            raise PipelineError(f"unknown lesson {lesson_id!r}")
        texture = generate_marker(lesson.marker_id)
        target = PlanarTarget(texture, MARKER_SIZE_M, MARKER_SIZE_M)
        centre = MARKER_SIZE_M / 2.0
        pose = look_at(eye=[centre, centre, -distance_m],
                       target=[centre, centre, 0.0])
        frame = render_plane(target, intrinsics, pose, rng=rng,
                             noise_sigma=noise_sigma)
        side = texture.shape[0]
        corners_tex = np.array([[0, 0], [side, 0], [0, side],
                                [side, side], [side / 2, side / 2]],
                               dtype=float)
        pixels = intrinsics.project(pose.transform(
            target.texture_to_world(corners_tex)))
        if not np.isfinite(pixels).all():
            return {"decoded": None, "triggered": False}
        homography = estimate_homography(corners_tex, pixels)
        decoded = decode_marker(frame, homography)
        triggered = decoded == lesson.marker_id
        if triggered:
            self.pipeline.interpret_and_publish([{
                "tag": "lesson-content", "subject": lesson_id,
                "value": lesson.topic, "priority": 5.0}])
        return {"decoded": decoded, "triggered": triggered}

    # -- quiz stream -> mastery analytics ------------------------------------

    def ingest_quiz(self, student: Student, topic: str, correct: bool,
                    timestamp: float) -> None:
        self.pipeline.ingest(QUIZ_TOPIC,
                             {"user": student.student_id, "topic": topic,
                              "correct": bool(correct)},
                             key=student.student_id, timestamp=timestamp,
                             personal=True)
        stats = self._mastery_stats.setdefault(
            (student.student_id, topic), RunningStats())
        stats.add(1.0 if correct else 0.0)

    def estimated_mastery(self, student_id: str, topic: str) -> float:
        stats = self._mastery_stats.get((student_id, topic))
        return stats.mean if stats is not None and stats.count else 0.5

    def weakest_topics(self, student_id: str) -> list[str]:
        """The review recommendation: the ``REVIEW_SLOTS`` topics of
        lowest estimated mastery, lowest first."""
        topics = sorted({l.topic for l in self.lessons.values()})
        ranked = sorted(topics, key=lambda t: (
            self.estimated_mastery(student_id, t), t))
        return ranked[:REVIEW_SLOTS]

    def publish_review_hints(self, student_id: str) -> int:
        """Anchor review hints at the lessons for the weak topics."""
        weak = set(self.weakest_topics(student_id))
        results = []
        for lesson in self.lessons.values():
            if lesson.topic in weak:
                results.append({"tag": "review-hint",
                                "subject": lesson.lesson_id,
                                "value": f"review {lesson.topic}",
                                "priority": 8.0})
        return self.pipeline.interpret_and_publish(results).bound

    # -- the measurable uplift -------------------------------------------------

    def run_semester(self, rng: np.random.Generator,
                     num_students: int = 20,
                     quiz_rounds: int = 15) -> ReviewOutcome:
        """Quizzes -> mastery estimates -> review -> post-test.

        Targeted students review their *estimated* weakest topics;
        untargeted students review as many random topics.  Learning has
        diminishing returns: a review closes ``LEARN_RATE`` of the gap
        to ceiling mastery (0.95), so reviewing what you already know is
        nearly worthless — which is exactly why targeting pays.
        """
        topics = sorted({l.topic for l in self.lessons.values()})

        def make_students(prefix):
            out = []
            for i in range(num_students):
                mastery = {t: float(rng.uniform(0.2, 0.9))
                           for t in topics}
                out.append(Student(student_id=f"{prefix}-{i:03d}",
                                   mastery=mastery))
            return out

        targeted = make_students("tgt")
        untargeted = make_students("rnd")
        # The quiz phase builds the analytics picture.
        t = 0.0
        for student in targeted + untargeted:
            for _round in range(quiz_rounds):
                for topic in topics:
                    correct = student.answer_correctly(topic, rng)
                    self.ingest_quiz(student, topic, correct, t)
                    t += 1.0

        def review_and_gain(students, choose_topics):
            gains = []
            for student in students:
                before = float(np.mean(list(student.mastery.values())))
                for topic in choose_topics(student):
                    gap = 0.95 - student.mastery[topic]
                    student.mastery[topic] += LEARN_RATE * max(gap, 0.0)
                after = float(np.mean(list(student.mastery.values())))
                gains.append(after - before)
            return float(np.mean(gains))

        targeted_gain = review_and_gain(
            targeted, lambda s: self.weakest_topics(s.student_id))
        untargeted_gain = review_and_gain(
            untargeted,
            lambda s: list(rng.choice(topics, size=REVIEW_SLOTS,
                                      replace=False)))
        return ReviewOutcome(students=num_students,
                             targeted_gain=targeted_gain,
                             untargeted_gain=untargeted_gain)
