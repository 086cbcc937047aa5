"""Property-based tests, second batch: layout, offload, privacy,
markers, ARML."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ArmlDocument, ArmlFeature, parse_arml, serialize_arml
from repro.offload import OffloadPlanner, Pipeline, TaskStage
from repro.privacy import GridCloak, PlanarLaplace, private_top_k
from repro.render.layout import clutter_metrics, declutter_layout
from repro.simnet import LinkSpec, NodeSpec, Topology
from repro.util.errors import PrivacyError
from repro.util.geometry import Rect
from repro.util.rng import make_rng
from repro.vision.markers import MAX_ID, decode_marker, generate_marker

SCREEN = Rect(0, 0, 640, 480)

label_items = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.floats(min_value=0, max_value=640),
              st.floats(min_value=0, max_value=480),
              st.floats(min_value=10, max_value=120),
              st.floats(min_value=8, max_value=40),
              st.floats(min_value=0, max_value=10)),
    min_size=0, max_size=40,
    unique_by=lambda row: row[0])


def _overlaps(a, b):
    """Whether two rects share area (a non-empty intersection)."""
    return (min(a.x2, b.x2) > max(a.x, b.x)
            and min(a.y2, b.y2) > max(a.y, b.y))


class TestLayoutProperties:
    @given(label_items)
    @settings(max_examples=60)
    def test_declutter_placed_labels_never_overlap(self, raw):
        items = [(f"l{i}", x, y, w, h, p) for i, x, y, w, h, p in raw]
        placed = declutter_layout(items, SCREEN)
        active = [l for l in placed if not l.dropped]
        for i, a in enumerate(active):
            for b in active[i + 1:]:
                assert not _overlaps(a.rect, b.rect)

    @given(label_items)
    @settings(max_examples=60)
    def test_declutter_placed_labels_inside_screen(self, raw):
        items = [(f"l{i}", x, y, w, h, p) for i, x, y, w, h, p in raw]
        placed = declutter_layout(items, SCREEN)
        for label in placed:
            if label.dropped:
                continue
            assert label.rect.x >= SCREEN.x - 1e-9
            assert label.rect.y >= SCREEN.y - 1e-9
            assert label.rect.x2 <= SCREEN.x2 + 1e-9
            assert label.rect.y2 <= SCREEN.y2 + 1e-9

    @given(label_items)
    @settings(max_examples=60)
    def test_every_label_accounted_for(self, raw):
        items = [(f"l{i}", x, y, w, h, p) for i, x, y, w, h, p in raw]
        placed = declutter_layout(items, SCREEN)
        assert len(placed) == len(items)
        metrics = clutter_metrics(placed, SCREEN)
        assert metrics.total == len(items)
        assert metrics.placed + metrics.dropped == len(items)
        assert 0.0 <= metrics.useful_ratio <= 1.0


class TestOffloadProperties:
    def _planner(self):
        topology = Topology(make_rng(0))
        topology.add_node(NodeSpec("device", cpu_hz=2e9, role="device"))
        topology.add_node(NodeSpec("edge", cpu_hz=16e9, role="edge"))
        topology.add_link("device", "edge",
                          LinkSpec(latency_s=0.002, bandwidth_bps=25e6))
        return OffloadPlanner(topology, "device")

    @given(st.lists(st.tuples(
        st.floats(min_value=1e5, max_value=1e8),
        st.floats(min_value=10, max_value=1e6)),
        min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_pricing_components_sum(self, stages_raw):
        stages = tuple(
            TaskStage(f"s{i}", cycles=c, output_bytes=b)
            for i, (c, b) in enumerate(stages_raw))
        pipeline = Pipeline("p", stages)
        planner = self._planner()
        for cut in pipeline.valid_cuts():
            outcome = planner.price(pipeline, cut, "edge")
            assert outcome.latency_s >= 0
            assert outcome.energy_j >= 0
            total = (outcome.local_compute_s + outcome.remote_compute_s
                     + outcome.network_s)
            assert abs(total - outcome.latency_s) < 1e-9

    @given(st.lists(st.tuples(
        st.floats(min_value=1e5, max_value=1e8),
        st.floats(min_value=10, max_value=1e6)),
        min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_cycles_conserved_across_cuts(self, stages_raw):
        stages = tuple(
            TaskStage(f"s{i}", cycles=c, output_bytes=b)
            for i, (c, b) in enumerate(stages_raw))
        pipeline = Pipeline("p", stages)
        for cut in pipeline.valid_cuts():
            total = pipeline.local_cycles(cut) + pipeline.remote_cycles(cut)
            assert abs(total - pipeline.total_cycles) <= \
                1e-9 * pipeline.total_cycles


class TestPrivacyProperties:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=200))
    @settings(max_examples=40)
    def test_cloak_region_contains_user(self, seed, k):
        rng = np.random.default_rng(seed)
        population = rng.uniform(0, 1000, size=(max(k, 50), 2))
        cloak = GridCloak(Rect(0, 0, 1000, 1000), k=k)
        x, y = float(population[0, 0]), float(population[0, 1])
        try:
            region = cloak.cloak(x, y, population)
        except PrivacyError:
            return  # legal when even the root can't hold k users
        assert region.rect.contains(x, y)
        assert region.occupancy >= k

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=40)
    def test_planar_laplace_radius_positive_finite(self, seed, epsilon):
        mech = PlanarLaplace(epsilon, np.random.default_rng(seed))
        for _ in range(10):
            r = mech.sample_radius()
            assert np.isfinite(r)
            assert r >= 0

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=10),
           st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=40)
    def test_private_top_k_valid_subset(self, seed, k, epsilon):
        scores = {f"c{i}": float(i * 3 % 17) for i in range(15)}
        picks = private_top_k(scores, k=k, epsilon=epsilon,
                              rng=make_rng(seed))
        assert len(picks) == k
        assert len(set(picks)) == k
        assert set(picks) <= set(scores)


class TestMarkerProperty:
    @given(st.integers(min_value=0, max_value=MAX_ID))
    @settings(max_examples=60)
    def test_every_id_roundtrips(self, marker_id):
        texture = generate_marker(marker_id)
        assert decode_marker(texture, np.eye(3)) == marker_id


class TestArmlProperty:
    safe_text = st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FA0,
                               blacklist_characters='<>&"\''),
        max_size=30)

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10**6),
        safe_text,
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=0.0, max_value=100.0)),
        min_size=0, max_size=20,
        unique_by=lambda row: row[0]))
    @settings(max_examples=40)
    def test_roundtrip_preserves_everything(self, rows):
        document = ArmlDocument()
        for fid, name, x, y, priority in rows:
            document.add(ArmlFeature(
                feature_id=f"f{fid}", name=name,
                anchor=np.array([x, y, 0.0]),
                label_text=name, priority=priority))
        parsed = parse_arml(serialize_arml(document))
        assert len(parsed) == len(document)
        for fid, name, x, y, priority in rows:
            feature = parsed.get(f"f{fid}")
            assert feature.name == name
            assert feature.anchor[0] == x
            assert feature.anchor[1] == y
            assert feature.priority == priority
