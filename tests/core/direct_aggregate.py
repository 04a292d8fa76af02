"""The direct per-epoch aggregation: the oracle for epoch views.

The library aggregates an epoch through one path, the
:class:`~repro.core.index.EpochClusterView`: one ``np.unique`` over the
whole trace, then a coarse-to-fine iceberg lattice and a residual fold
per epoch. This module keeps the slow, obvious path the view replaced,
written for reading rather than speed: pack one metric's valid rows,
``np.unique`` them into leaves, and project every mask with its own
``np.unique``. It builds the whole lattice (floor 1) and drops leaf
combinations with no valid session for the metric.

On every cluster a view keeps, the view's counts equal this module's,
and detection over either gives the same problem and critical
clusters; the test suite checks both.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregation import EpochAggregate, EpochLattice, KeyCodec
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.sessions import SessionTable


def flatten(
    codec: KeyCodec,
    mask_keys: Sequence[np.ndarray],
    mask_reps: Sequence[np.ndarray],
    leaf_cluster: np.ndarray,
) -> EpochLattice:
    """Lay every mask's whole cluster table out flat (floor 1).

    ``mask_keys[m - 1]`` are mask ``m``'s sorted keys and
    ``mask_reps[m - 1]`` one leaf of each; row ``m`` of the int32
    ``leaf_cluster`` holds each leaf's position within the mask's keys
    and is shifted to cluster ids in place.
    """
    starts = np.zeros(len(mask_keys) + 2, dtype=np.int64)
    np.cumsum([k.size for k in mask_keys], out=starts[2:])
    leaf_cluster += starts[:-1, None].astype(np.int32)
    leaf_cluster[0] = -1
    return EpochLattice(
        codec,
        np.concatenate(mask_keys),
        starts,
        leaf_cluster,
        np.concatenate(mask_reps).astype(np.int32, copy=False),
    )


def aggregate_epoch(
    table: SessionTable,
    rows: np.ndarray,
    metric: QualityMetric,
    epoch: int = 0,
    thresholds: MetricThresholds | None = None,
    codec: KeyCodec | None = None,
) -> EpochAggregate:
    """Aggregate one epoch's sessions for one metric, directly.

    ``rows`` indexes the epoch's sessions within ``table``. Sessions
    for which the metric is undefined (e.g. join time of a failed join)
    are excluded — the paper studies each metric over its own valid
    population.
    """
    codec = codec or KeyCodec.from_table(table)
    valid = metric.valid_mask(table)[rows]
    use = np.asarray(rows)[valid]
    problem = metric.problem_mask(table, thresholds)[use].astype(np.int64)
    packed = codec.pack(table.codes[use])

    leaf_keys, inverse = np.unique(packed, return_inverse=True)
    leaf_sessions = np.bincount(inverse, minlength=leaf_keys.size).astype(
        np.int64
    )
    leaf_problems = np.bincount(
        inverse, weights=problem, minlength=leaf_keys.size
    ).astype(np.int64)

    field_masks = codec.field_masks()
    full = codec.full_mask
    leaf_cluster = np.empty((full + 1, leaf_keys.size), dtype=np.int32)
    mask_keys, mask_reps, sessions, problems = [], [], [], []
    for m in range(1, full + 1):
        keys, rep, inv = np.unique(
            leaf_keys & field_masks[m], return_index=True, return_inverse=True
        )
        leaf_cluster[m] = inv
        mask_keys.append(keys)
        mask_reps.append(rep)
        sessions.append(
            np.bincount(inv, weights=leaf_sessions, minlength=keys.size)
        )
        problems.append(
            np.bincount(inv, weights=leaf_problems, minlength=keys.size)
        )

    return EpochAggregate(
        epoch=epoch,
        metric_name=metric.name,
        lattice=flatten(codec, mask_keys, mask_reps, leaf_cluster),
        sessions=np.concatenate(sessions).astype(np.int64),
        problems=np.concatenate(problems).astype(np.int64),
        leaf_sessions=leaf_sessions,
        leaf_problems=leaf_problems,
    )
