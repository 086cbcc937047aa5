"""Unit tests: adaptive quality controller and crowdsourced modelling."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveQualityController,
    ARBigDataPipeline,
    PipelineConfig,
)
from repro.offload import AlwaysLocal
from repro.sensors import BoxModel, Contribution, CrowdModel
from repro.simnet.network import LinkSpec
from repro.util.errors import SensorError
from repro.util.rng import make_rng


class TestAdaptiveQuality:
    def _controller(self, deadline=1.0 / 30.0, start_level=0,
                    degrade_network=False):
        pipeline = ARBigDataPipeline(PipelineConfig(
            seed=0, deadline_s=deadline))
        if degrade_network:
            pipeline.set_access_link(LinkSpec(latency_s=0.5,
                                              bandwidth_bps=1e4))
            pipeline.set_offload_policy(AlwaysLocal())
        controller = AdaptiveQualityController(pipeline.timeliness)
        controller.level = start_level
        return controller

    def test_downshifts_when_missing_deadline(self):
        # HD locally on a phone blows 33 ms: the controller must back off.
        controller = self._controller(degrade_network=True)
        assert controller.resolution == (1280, 720)
        for _ in range(40):
            controller.admit_frame()
        assert controller.downshifts >= 1
        assert controller.level > 0

    def test_converges_to_a_meeting_level(self):
        controller = self._controller(degrade_network=True)
        for _ in range(60):
            controller.admit_frame()
        # After convergence, recent frames meet the deadline.
        finals = [controller.admit_frame() for _ in range(4)]
        assert all(t.met_deadline for t in finals)

    def test_upshifts_with_headroom(self):
        # Start at the lowest level with a generous deadline: step up.
        controller = self._controller(deadline=0.5, start_level=3)
        for _ in range(60):
            controller.admit_frame()
        assert controller.upshifts >= 1
        assert controller.level < 3

    def test_stays_within_ladder(self):
        controller = self._controller(deadline=1e-9, start_level=0,
                                      degrade_network=True)
        for _ in range(100):
            controller.admit_frame()
        assert controller.level == len(controller.LADDER) - 1


class TestCrowdModel:
    TRUTH = BoxModel(cx=100.0, cy=50.0, width=20.0, depth=30.0,
                     height=45.0)

    def _submit(self, crowd, models, building="b1"):
        for i, model in enumerate(models):
            crowd.submit(Contribution(building_id=building,
                                      contributor=f"c{i}", model=model))

    def test_consensus_improves_with_contributions(self):
        rng = make_rng(0)
        errors = []
        for n in (1, 5, 25, 100):
            crowd = CrowdModel()
            self._submit(crowd, CrowdModel.simulate_contributions(
                self.TRUTH, n, make_rng(1)))
            errors.append(crowd.consensus("b1").error_to(self.TRUTH))
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.5  # metres, with 100 contributors

    def test_median_robust_to_outliers(self):
        rng = make_rng(2)
        good = CrowdModel.simulate_contributions(
            self.TRUTH, 30, rng, outlier_rate=0.0)
        # Add 20% gross vandalism.
        bad = [BoxModel(cx=9999.0, cy=-9999.0, width=1.0, depth=1.0,
                        height=1.0)] * 7
        crowd = CrowdModel()
        self._submit(crowd, good + bad)
        consensus = crowd.consensus("b1")
        assert consensus.error_to(self.TRUTH) < 2.0

    def test_mean_would_not_be_robust(self):
        """Sanity contrast: the naive mean is wrecked by the outliers
        the median shrugs off."""
        rng = make_rng(3)
        good = CrowdModel.simulate_contributions(
            self.TRUTH, 30, rng, outlier_rate=0.0)
        bad = [BoxModel(cx=9999.0, cy=-9999.0, width=1.0, depth=1.0,
                        height=1.0)] * 7
        stack = np.array([[m.cx, m.cy, m.width, m.depth, m.height]
                          for m in good + bad])
        mean_model = BoxModel(*[float(v) for v in stack.mean(axis=0)])
        crowd = CrowdModel()
        self._submit(crowd, good + bad)
        assert crowd.consensus("b1").error_to(self.TRUTH) < \
            mean_model.error_to(self.TRUTH) / 10

    def test_buildings_tracked_separately(self):
        crowd = CrowdModel()
        self._submit(crowd, [self.TRUTH], building="b1")
        other = BoxModel(cx=0.0, cy=0.0, width=5.0, depth=5.0,
                         height=10.0)
        self._submit(crowd, [other], building="b2")
        assert crowd.buildings() == ["b1", "b2"]
        assert crowd.consensus("b2").error_to(other) == 0.0

    def test_no_contributions_rejected(self):
        with pytest.raises(SensorError):
            CrowdModel().consensus("ghost")
