"""Degradation under the supervised facade: the Supervisor's ladder
retries a broker outage; one that outlasts ``MAX_FAILURES`` is terminal
and names its cause (there is no stale cache to serve from), and a
recovered backbone answers as a healthy one does."""

import pytest

from repro.core import ARBigDataPipeline, PipelineConfig
from repro.util.errors import BrokerDown, ChaosError


def _pipeline():
    pipeline = ARBigDataPipeline(PipelineConfig(seed=11))
    pipeline.create_topic("readings")
    for i in range(40):
        pipeline.ingest("readings", {"sensor": i % 3, "v": float(i)},
                        key=str(i % 3), timestamp=float(i))
    return pipeline


def _query(pipeline):
    return pipeline.windowed_aggregate(
        "readings", key_fn=lambda v: v["sensor"],
        value_fn=lambda v: v["v"], window_s=10.0)


def _fail_all_brokers(pipeline):
    for broker_id in list(pipeline.log.brokers):
        pipeline.log.fail_broker(broker_id)


def _recover_all_brokers(pipeline):
    for broker_id in list(pipeline.log.brokers):
        pipeline.log.recover_broker(broker_id)


class TestGracefulDegradation:
    def test_failure_with_no_cache_raises(self):
        pipeline = _pipeline()
        _fail_all_brokers(pipeline)
        with pytest.raises(ChaosError, match="gave up") as info:
            _query(pipeline)
        assert isinstance(info.value.__cause__, BrokerDown)

    def test_recovery_returns_to_fresh(self):
        healthy = _query(_pipeline())
        assert len(healthy) > 0
        pipeline = _pipeline()
        _fail_all_brokers(pipeline)
        with pytest.raises(ChaosError):
            _query(pipeline)
        _recover_all_brokers(pipeline)
        assert _query(pipeline) == healthy
