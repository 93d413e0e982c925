"""LOOM configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True, slots=True)
class LoomConfig:
    """All knobs of the LOOM partitioner in one validated value object.

    ``k``
        Number of partitions.
    ``capacity``
        Hard per-partition vertex capacity ``C`` (the balance constraint;
        usually ``ceil(slack * n / k)`` -- see
        :func:`repro.partitioning.base.default_capacity`).
    ``window_size``
        Vertices buffered in the sliding stream window.  ``1`` disables
        buffering and degrades LOOM to plain LDG (experiment E4).
    ``motif_threshold``
        The paper's ``T``: TPSTry++ nodes with p-value >= T are frequent
        motifs.  Values above 1.0 disable motif grouping (experiment E5).
    ``max_group_size``
        Cap on the merged assignment group (overlapping motif matches can
        chain; section 4.4 flags unbounded groups as a risk).
    ``group_matches``
        Master switch for whole-match assignment (ablation A2; off means
        the window still buffers but every vertex is placed individually).
    ``resignature_fix``
        The section-4.3 incremental re-signature procedure that recovers
        motif matches hidden by shared sub-structure (ablation A1).
    ``traversal_aware_singles``
        Future-work extension (paper section 5): weight single-vertex LDG
        by TPSTry++ edge-traversal probabilities (ablation A4).
    ``stage_timings``
        Accumulate per-stage wall-time in the matcher
        (match/extend/regrow/evict), surfaced through the streaming
        engine's ``stage_seconds`` batch statistics.  Off by default: the
        clock reads cost a few percent on the hot path.
    """

    k: int
    capacity: int
    window_size: int = 64
    motif_threshold: float = 0.4
    max_group_size: int = 32
    group_matches: bool = True
    resignature_fix: bool = True
    traversal_aware_singles: bool = False
    stage_timings: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        if self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.motif_threshold <= 0:
            raise ConfigurationError("motif_threshold must be positive")
        if self.max_group_size < 2:
            raise ConfigurationError(
                "max_group_size must be >= 2 (a group is at least one edge)"
            )
