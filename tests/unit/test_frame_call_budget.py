"""A served overlay frame has a call budget.

An AR frame in the ward reads the newest vital of every label it may
draw, binds the results to their patients, builds a scene and composes
it under a frame budget.  This counts the Python function calls
(``sys.setprofile`` ``call`` events; C functions are not counted) of one
such frame with 20 annotations: 20 ``TieredStore.latest`` lookups, then
``InterpretationEngine.interpret``, the scene build and
``Compositor.compose``, after a first frame has filled the projection
memo.  The per-label work shows up here at once: a lookup that routes
through two more methods, a subject resolved twice, a sort key or a
dataclass ``__post_init__`` per label.  It is deterministic, so it must
also read the same under two hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

#: what one frame measured when this budget was set (156), with
#: headroom; a frozen-dataclass ``Rect``, four calls per lookup, a
#: subject resolved by two calls and a sort key per label read 328, and
#: a layout that sorted the budget's rows again and built its labels
#: and items through ``NamedTuple.__new__`` read 204
CALL_BUDGET = 170

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.context import ContextStore, InterpretationEngine, SemanticEntity
from repro.render import Compositor, FrameBudget, SceneGraph
from repro.store import TieredStore
from repro.streaming.element import Element
from repro.vision import CameraIntrinsics
from repro.vision.camera import look_at

VITALS = {"hr": (75.0, 8.0), "spo2": (97.0, 1.5), "rr": (16.0, 3.0),
          "temp": (36.8, 0.4), "sbp": (120.0, 12.0)}
store, context = TieredStore(), ContextStore()
lookups = []
for bed in range(4):
    pid = f"p{bed:03d}"
    context.add_entity(SemanticEntity(pid, "patient",
                                      ((bed - 1.5) * 1.5, 0.0, 5.0), name=pid))
    for tag, (mean, spread) in VITALS.items():
        lookups.append((f"{pid}:{tag}", pid, tag, mean, spread))
store.apply_epoch(1, [
    Element(value=mean + spread * ((i * 7) % 5 - 2) / 3, timestamp=float(i),
            key=key)
    for i, (key, _pid, _tag, mean, spread) in enumerate(lookups)])
engine = InterpretationEngine(context)
for tag in VITALS:
    engine.register_default(tag)
compositor = Compositor(
    CameraIntrinsics(fx=800.0, fy=800.0, cx=640.0, cy=360.0, width=1280,
                     height=720),
    budget=FrameBudget(budget_ms=4.0))
pose = look_at((0.0, 0.0, 0.0), (0.0, 0.0, 5.0))


def frame():
    got = [store.latest(key) for key, *_ in lookups]
    results = [{"tag": tag, "subject": pid, "value": round(v[0][1], 1),
                "priority": abs(v[0][1] - mean) / spread}
               for (_key, pid, tag, mean, spread), v in zip(lookups, got)]
    bound = engine.interpret(results)
    scene = SceneGraph()
    for annotation in bound.annotations:
        scene.add(annotation)
    return compositor.compose(scene, pose)


frame()  # imports and the projection memo stay out of the count
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
composed = frame()
sys.setprofile(None)
assert len(composed.items) == 16 and composed.shed_by_budget == 4
print(calls)
"""


def _calls(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def test_a_frame_stays_within_its_call_budget_under_two_hash_seeds():
    counts = {seed: _calls(seed) for seed in ("0", "1")}
    assert counts["0"] == counts["1"], counts
    assert counts["0"] <= CALL_BUDGET, counts
