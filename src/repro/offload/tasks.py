"""Offloadable task and pipeline models.

An AR frame is a pipeline of stages (CloudRiDAR decomposition): acquire
-> detect -> describe -> match -> estimate pose -> render.  Each stage
has a compute cost in cycles and an output size in bytes; cutting the
pipeline after stage *i* uploads stage *i*'s output, runs the remaining
compute-heavy stages remotely and downloads the (small) pose result.

``vision_pipeline`` builds a profile from measured tracker workload
(:class:`repro.vision.tracker.StageProfile`), so the offload experiments
are priced from the same vision code the registration experiments run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import OffloadError
from ..vision.tracker import StageProfile

__all__ = ["TaskStage", "Pipeline", "vision_pipeline"]


@dataclass(frozen=True)
class TaskStage:
    """One pipeline stage.

    cycles        compute cost
    output_bytes  data produced (what crossing the network here costs)
    pinned        'device' pins the stage to the device (camera, display),
                  None means it may run anywhere
    """

    name: str
    cycles: float
    output_bytes: float
    pinned: str | None = None

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.output_bytes < 0:
            raise OffloadError("cycles and output_bytes must be >= 0")


@dataclass(frozen=True)
class Pipeline:
    """An ordered stage list with cut-point semantics."""

    name: str
    stages: tuple[TaskStage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise OffloadError("pipeline needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise OffloadError("duplicate stage names")

    @property
    def total_cycles(self) -> float:
        return sum(s.cycles for s in self.stages)

    def valid_cuts(self) -> list[int]:
        """Cut k means stages [0, k) local and [k, n) remote, except
        stages pinned to the device, which force the cut around them:
        a leading pinned prefix must stay local, a trailing pinned suffix
        (display/render) always runs locally after results return.

        Returns every k (0..n) consistent with pinning; k == n is the
        all-local plan.
        """
        n = len(self.stages)
        first_free = 0
        while first_free < n and self.stages[first_free].pinned == "device":
            first_free += 1
        last_free = n
        while last_free > first_free and self.stages[last_free - 1].pinned \
                == "device":
            last_free -= 1
        for stage in self.stages[first_free:last_free]:
            if stage.pinned == "device":
                raise OffloadError(
                    f"stage {stage.name!r} pinned mid-pipeline; cannot cut")
        return list(range(first_free, last_free + 1))

    def remote_cycles(self, cut: int) -> float:
        """Cycles executed remotely for cut k (respecting pinned tail)."""
        cuts = self.valid_cuts()
        if cut not in cuts:
            raise OffloadError(f"invalid cut {cut} (valid: {cuts})")
        last_free = max(cuts)
        return sum(s.cycles for s in self.stages[cut:last_free])

    def local_cycles(self, cut: int) -> float:
        return self.total_cycles - self.remote_cycles(cut)

    def upload_bytes(self, cut: int) -> float:
        """Bytes crossing the network at cut k (0 when all-local)."""
        cuts = self.valid_cuts()
        if cut not in cuts:
            raise OffloadError(f"invalid cut {cut} (valid: {cuts})")
        if cut >= max(cuts):
            return 0.0
        if cut == 0:
            # Nothing ran locally yet; the raw input of stage 0 must be
            # shipped — approximate with stage 0's output (acquire
            # produces the frame).
            return self.stages[0].output_bytes
        return self.stages[cut - 1].output_bytes


# Cycle-cost coefficients for the vision stages, calibrated so a mid
#-range phone (~2 GHz effective) tracks a 320x240 frame in tens of ms —
# the regime where the paper's timeliness challenge is real.
_CYCLES_PER_PIXEL_ACQ = 8.0
_CYCLES_PER_PIXEL_DETECT = 180.0
_CYCLES_PER_FEATURE_DESCRIBE = 9_000.0
_CYCLES_PER_FEATURE_MATCH = 22_000.0
_CYCLES_PER_RANSAC_ITER = 60_000.0
_CYCLES_RENDER = 4e6

_BYTES_PER_PIXEL = 1.0
_BYTES_PER_FEATURE = 40.0  # descriptor + keypoint
_POSE_BYTES = 128.0


def vision_pipeline(profile: StageProfile) -> Pipeline:
    """Build the offloadable AR frame pipeline (``"ar-frame"``) from
    measured workload."""
    pixels = max(1, profile.pixels)
    features = max(1, profile.features)
    ransac_iters = max(1, profile.ransac_iterations)
    stages = (
        TaskStage("acquire", cycles=_CYCLES_PER_PIXEL_ACQ * pixels,
                  output_bytes=_BYTES_PER_PIXEL * pixels, pinned="device"),
        TaskStage("detect", cycles=_CYCLES_PER_PIXEL_DETECT * pixels,
                  output_bytes=_BYTES_PER_FEATURE * features),
        TaskStage("describe",
                  cycles=_CYCLES_PER_FEATURE_DESCRIBE * features,
                  output_bytes=_BYTES_PER_FEATURE * features),
        TaskStage("match", cycles=_CYCLES_PER_FEATURE_MATCH * features,
                  output_bytes=_POSE_BYTES * 4),
        TaskStage("estimate_pose",
                  cycles=_CYCLES_PER_RANSAC_ITER * ransac_iters,
                  output_bytes=_POSE_BYTES),
        TaskStage("render", cycles=_CYCLES_RENDER,
                  output_bytes=_BYTES_PER_PIXEL * pixels, pinned="device"),
    )
    return Pipeline(name="ar-frame", stages=stages)
