"""Computer-vision substrate: camera model, features, geometry, markers,
planar tracking, synthetic scene imaging."""

from .._lazy import lazy_exports

# lazy: a camera model is all a renderer needs, and features and flow
# import scipy
__getattr__, __dir__ = lazy_exports(__name__, {
    ".camera": ("CameraIntrinsics", "Pose", "look_at"),
    ".flow": ("FlowResult", "HybridTracker", "track_points"),
    ".features": ("BriefDescriptor", "Keypoint", "Match", "detect_corners",
                  "match_descriptors"),
    ".geometry": ("RansacResult", "apply_homography", "estimate_homography",
                  "pose_from_homography", "ransac_homography",
                  "reprojection_error"),
    ".markers": ("decode_marker", "generate_marker"),
    ".synth": ("PlanarTarget", "make_texture", "render_plane"),
    ".tracker": ("PlanarTracker", "StageProfile", "TrackResult"),
})

__all__ = [
    "FlowResult",
    "HybridTracker",
    "track_points",
    "CameraIntrinsics",
    "Pose",
    "look_at",
    "BriefDescriptor",
    "Keypoint",
    "Match",
    "detect_corners",
    "match_descriptors",
    "RansacResult",
    "apply_homography",
    "estimate_homography",
    "pose_from_homography",
    "ransac_homography",
    "reprojection_error",
    "decode_marker",
    "generate_marker",
    "PlanarTarget",
    "make_texture",
    "render_plane",
    "PlanarTracker",
    "StageProfile",
    "TrackResult",
]
