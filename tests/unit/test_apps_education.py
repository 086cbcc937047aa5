"""Unit tests: the AR classroom application."""

import pytest

from repro.apps import EducationApp, Lesson, Student
from repro.core import ARBigDataPipeline, DEFAULT_INTRINSICS, PipelineConfig
from repro.util.errors import PipelineError
from repro.util.rng import make_rng


def _lessons():
    return [
        Lesson("l-frac", "fractions", marker_id=7,
               position=(0.0, 0.0, 1.0)),
        Lesson("l-geo", "geometry", marker_id=21,
               position=(3.0, 0.0, 1.0)),
        Lesson("l-time", "clock-reading", marker_id=42,
               position=(6.0, 0.0, 1.0)),
    ]


def _app(seed=0):
    return EducationApp(ARBigDataPipeline(PipelineConfig(seed=seed)),
                        _lessons()), make_rng(seed)


class TestMarkerTriggeredContent:
    def test_close_scan_triggers_content(self):
        app, rng = _app(1)
        outcome = app.scan_marker(rng, "l-frac", distance_m=0.4,
                                  intrinsics=DEFAULT_INTRINSICS)
        assert outcome["decoded"] == 7
        assert outcome["triggered"]
        assert app.pipeline.dataset.version == 1

    def test_far_scan_fails_gracefully(self):
        app, rng = _app(2)
        outcome = app.scan_marker(rng, "l-frac", distance_m=20.0,
                                  intrinsics=DEFAULT_INTRINSICS)
        assert not outcome["triggered"]
        assert app.pipeline.dataset.version == 0

    def test_trigger_rate_degrades_with_distance(self):
        app, rng = _app(3)
        def rate(distance):
            hits = 0
            for _ in range(10):
                if app.scan_marker(rng, "l-geo", distance_m=distance,
                                   intrinsics=DEFAULT_INTRINSICS,
                                   noise_sigma=0.03)["triggered"]:
                    hits += 1
            return hits / 10
        assert rate(0.4) > rate(8.0)
        assert rate(0.4) >= 0.9

    def test_unknown_lesson_rejected(self):
        app, rng = _app(4)
        with pytest.raises(PipelineError):
            app.scan_marker(rng, "nope", 0.5, DEFAULT_INTRINSICS)


class TestMasteryAnalytics:
    def test_estimates_track_true_mastery(self):
        app, rng = _app(5)
        student = Student("s1", mastery={"fractions": 0.9,
                                         "geometry": 0.2,
                                         "clock-reading": 0.5})
        for i in range(60):
            for topic in student.mastery:
                app.ingest_quiz(student, topic,
                                student.answer_correctly(topic, rng),
                                timestamp=float(i))
        assert app.estimated_mastery("s1", "fractions") > 0.75
        assert app.estimated_mastery("s1", "geometry") < 0.4

    def test_weakest_topics_ranked(self):
        app, rng = _app(6)
        student = Student("s1", mastery={"fractions": 0.95,
                                         "geometry": 0.1,
                                         "clock-reading": 0.5})
        for i in range(80):
            for topic in student.mastery:
                app.ingest_quiz(student, topic,
                                student.answer_correctly(topic, rng),
                                timestamp=float(i))
        assert app.weakest_topics("s1")[0] == "geometry"

    def test_unseen_student_defaults_neutral(self):
        app, _rng = _app(7)
        assert app.estimated_mastery("ghost", "fractions") == 0.5

    def test_review_hints_anchor_at_weak_lessons(self):
        app, rng = _app(8)
        student = Student("s1", mastery={"fractions": 0.95,
                                         "geometry": 0.05,
                                         "clock-reading": 0.9})
        for i in range(60):
            for topic in student.mastery:
                app.ingest_quiz(student, topic,
                                student.answer_correctly(topic, rng),
                                timestamp=float(i))
        # the two weakest: geometry and clock-reading
        bound = app.publish_review_hints("s1")
        assert bound == 2
        session = app.pipeline.open_session("s1")
        session.sync()
        assert "review-hint:l-geo" in session.visible_annotation_ids()


class TestSemester:
    def test_targeted_review_beats_random(self):
        # A wider curriculum gives targeting room to matter.
        lessons = [Lesson(f"l{i}", f"topic-{i}", marker_id=i + 1,
                          position=(float(i), 0.0, 1.0))
                   for i in range(6)]
        app = EducationApp(ARBigDataPipeline(PipelineConfig(seed=9)),
                           lessons)
        rng = make_rng(9)
        outcome = app.run_semester(rng, num_students=25, quiz_rounds=20)
        assert outcome.targeted_gain > outcome.untargeted_gain
        assert outcome.uplift > 0.05

    def test_validation(self):
        with pytest.raises(PipelineError):
            EducationApp(ARBigDataPipeline(PipelineConfig(seed=0)), [])
        dup = [Lesson("x", "t", 1, (0, 0, 0)),
               Lesson("x", "t2", 2, (1, 0, 0))]
        with pytest.raises(PipelineError):
            EducationApp(ARBigDataPipeline(PipelineConfig(seed=1)), dup)
