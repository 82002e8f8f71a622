"""Defaults shared by the pipelines and the CLI flags that expose them.

Kept free of numpy, so the CLI can build its parser without loading a pipeline.
"""

DEFAULT_IOU_THRESHOLD = 0.3  # Warp & Match: least IoU for a match
DEFAULT_WINDOW_SIZES = (1, 2, 3, 4)  # VPQ: window sizes k averaged into the mean
