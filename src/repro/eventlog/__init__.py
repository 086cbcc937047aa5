"""Kafka-like partitioned, replicated event log (in-memory simulation)."""

from .broker import Broker, LogCluster, PartitionState, TopicConfig
from .consumer import Consumer, ConsumerGroup
from .mirror import ReplicatedTopic
from .partition import Partition
from .producer import Producer, stable_hash
from .record import ConsumedRecord, Record, estimate_size, record_size

__all__ = [
    "Broker",
    "LogCluster",
    "PartitionState",
    "TopicConfig",
    "ReplicatedTopic",
    "Consumer",
    "ConsumerGroup",
    "Partition",
    "Producer",
    "stable_hash",
    "Record",
    "ConsumedRecord",
    "estimate_size",
    "record_size",
]
