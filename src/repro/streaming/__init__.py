"""Flink-like event-time dataflow engine (single-threaded simulation)."""

from .autoscale import (
    Autoscaler,
    OperatorSignals,
    RescaleEvent,
    ScalingDecision,
    ScalingPolicy,
    SchedulePolicy,
    ShedPolicy,
    UtilizationTargetPolicy,
)
from .barrier import AlignmentResult, BarrierAligner, ParallelCheckpoint
from .cep import PatternMatch, PatternOperator, PatternStep
from .chain import ChainedOperator
from .connectors import log_source, parallel_log_source
from .coordinator import (
    CheckpointCoordinator,
    CheckpointManifest,
    CheckpointStore,
    HeartbeatMonitor,
    failover_region_of,
    failover_regions,
)
from .element import CheckpointBarrier, Element, StreamItem, Watermark
from .errors import (
    DEAD_LETTER,
    DLQ_SINK,
    FAIL,
    RETRY,
    SKIP,
    DeadLetter,
    ErrorPolicy,
    RestartBudget,
)
from .execution import ParallelExecutor
from .graph import JobBuilder, JobGraph, SourceSpec
from .join import IntervalJoinOperator, Joined
from .placement import RegionPlacement, placement_from_topology
from .plan import (
    ExecutionGraph,
    PhysicalEdge,
    PhysicalNode,
    compile_execution_graph,
)
from .operators import (
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    Operator,
    ReduceOperator,
    TimestampAssigner,
    WatermarkGenerator,
)
from .sources import SourceReader, Split
from .shuffle import (
    KEY_GROUPS,
    key_group_for,
    key_group_range,
    subtask_for_key_group,
)
from .state import KeyedState
from .supervisor import (
    Controller,
    SupervisionReport,
    Supervisor,
    run_coordinated,
)
from .transport import Channel, Channels
from .txn_sink import TransactionalLogSink, TransactionalSink
from .window_operator import (
    LateRecord,
    WindowAggregateOperator,
    WindowResult,
    aggregators,
)
from .windows import (
    SessionWindows,
    TumblingWindows,
    Window,
    WindowAssigner,
)

__all__ = [
    "OperatorSignals",
    "ScalingDecision",
    "ScalingPolicy",
    "UtilizationTargetPolicy",
    "SchedulePolicy",
    "ShedPolicy",
    "Autoscaler",
    "RescaleEvent",
    "Controller",
    "SupervisionReport",
    "Supervisor",
    "run_coordinated",
    "PatternMatch",
    "PatternOperator",
    "PatternStep",
    "Element",
    "Watermark",
    "StreamItem",
    "CheckpointBarrier",
    "AlignmentResult",
    "BarrierAligner",
    "CheckpointCoordinator",
    "CheckpointManifest",
    "CheckpointStore",
    "HeartbeatMonitor",
    "failover_regions",
    "failover_region_of",
    "TransactionalSink",
    "TransactionalLogSink",
    "ErrorPolicy",
    "FAIL",
    "SKIP",
    "RETRY",
    "DEAD_LETTER",
    "DLQ_SINK",
    "DeadLetter",
    "RestartBudget",
    "JobBuilder",
    "JobGraph",
    "SourceSpec",
    "ExecutionGraph",
    "PhysicalNode",
    "PhysicalEdge",
    "ParallelCheckpoint",
    "ParallelExecutor",
    "compile_execution_graph",
    "Split",
    "SourceReader",
    "Channel",
    "Channels",
    "RegionPlacement",
    "placement_from_topology",
    "KEY_GROUPS",
    "key_group_for",
    "key_group_range",
    "subtask_for_key_group",
    "Operator",
    "ChainedOperator",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "KeyByOperator",
    "ReduceOperator",
    "TimestampAssigner",
    "WatermarkGenerator",
    "WindowAggregateOperator",
    "WindowResult",
    "LateRecord",
    "aggregators",
    "Window",
    "WindowAssigner",
    "TumblingWindows",
    "SessionWindows",
    "IntervalJoinOperator",
    "Joined",
    "KeyedState",
    "log_source",
    "parallel_log_source",
]
