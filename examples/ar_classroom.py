"""Education scenario (paper intro: AR for teaching; Figure 5's
education field).

An AR classroom: lesson stations carry fiducial markers; scanning one
pops up its content (and fails honestly at distance); quiz streams build
per-student mastery analytics; review hints are anchored at each
student's weakest lesson stations; and a simulated semester measures the
uplift of data-targeted review over handing everyone the same worksheet.

Run:  python examples/ar_classroom.py
"""

from repro import ARBigDataPipeline, PipelineConfig
from repro.apps import EducationApp, Lesson, Student
from repro.core import DEFAULT_INTRINSICS
from repro.util.rng import make_rng


def main() -> None:
    rng = make_rng(77)
    lessons = [
        Lesson("l-frac", "fractions", marker_id=7, position=(0, 0, 1)),
        Lesson("l-geo", "geometry", marker_id=21, position=(3, 0, 1)),
        Lesson("l-time", "clock-reading", marker_id=42,
               position=(6, 0, 1)),
        Lesson("l-meas", "measurement", marker_id=55, position=(9, 0, 1)),
        Lesson("l-data", "pictographs", marker_id=60, position=(12, 0, 1)),
        Lesson("l-word", "word-problems", marker_id=33,
               position=(15, 0, 1)),
    ]
    app = EducationApp(ARBigDataPipeline(PipelineConfig(seed=77)),
                       lessons)

    # -- marker-triggered pop-ups --------------------------------------------
    print("scanning lesson markers:")
    for distance in (0.4, 1.5, 6.0):
        outcome = app.scan_marker(rng, "l-frac", distance_m=distance,
                                  intrinsics=DEFAULT_INTRINSICS,
                                  noise_sigma=0.02)
        verdict = ("content pops up" if outcome["triggered"]
                   else f"decode failed (got {outcome['decoded']})")
        print(f"  at {distance:3.1f} m: {verdict}")

    # -- one student's quiz history --------------------------------------------
    maya = Student("maya", mastery={
        "fractions": 0.85, "geometry": 0.25, "clock-reading": 0.6,
        "measurement": 0.7, "pictographs": 0.9, "word-problems": 0.35})
    t = 0.0
    for _round in range(25):
        for topic in maya.mastery:
            app.ingest_quiz(maya, topic,
                            maya.answer_correctly(topic, rng), t)
            t += 1.0
    print("\nmaya's estimated mastery:")
    for topic in sorted(maya.mastery):
        estimate = app.estimated_mastery("maya", topic)
        print(f"  {topic:14s} true {maya.mastery[topic]:.2f} "
              f"estimated {estimate:.2f}")
    weak = app.weakest_topics("maya")
    print(f"review recommendation: {weak}")
    bound = app.publish_review_hints("maya")
    print(f"{bound} review hints anchored at lesson stations")

    # -- the semester experiment --------------------------------------------------
    outcome = app.run_semester(rng, num_students=30, quiz_rounds=20)
    print(f"\nsemester ({outcome.students} students/arm): targeted "
          f"review gains {outcome.targeted_gain:.3f} mastery vs "
          f"{outcome.untargeted_gain:.3f} untargeted "
          f"(uplift {outcome.uplift:.0%})")


if __name__ == "__main__":
    main()
