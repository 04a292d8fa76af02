"""Per-mask reference for the problem- and critical-cluster detectors.

:mod:`repro.core.problems` and :mod:`repro.core.critical` run on
whole-lattice arrays. This module is the readable per-mask formulation
they replaced, kept as the test oracle. It reads the whole lattice
(floor 1, as :func:`tests.core.direct_aggregate.aggregate_epoch` builds
it) one mask at a time through a local slicer, treats the full mask's
clusters as the leaves, and projects keys with ``searchsorted``:

* problem flags: one predicate call over every mask's significant
  clusters, scattered back into per-mask flag arrays;
* the descendants condition: a *tainted* set per mask, folded up the
  lattice one attribute at a time from the significant non-problem
  clusters;
* the ancestor-removal test per candidate mask and strict submask;
* minimality per candidate mask over leaves, and attribution with
  ``np.add.at`` in ascending mask order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import ClusterStats, EpochAggregate
from repro.core.attributes import iter_submasks, popcount
from repro.core.critical import CriticalAttribution
from repro.core.problems import ProblemClusterConfig, cluster_problem_flags


@dataclass
class ReferenceDetection:
    """What the per-mask reference finds in one (epoch, metric) unit."""

    #: ``(mask, packed) -> stats`` of every problem cluster, in
    #: ascending (mask, key) order.
    problems: dict[tuple[int, int], ClusterStats]
    problem_coverage: float
    #: ``(mask, packed) -> attribution`` of every critical cluster, in
    #: ascending (mask, key) order.
    critical: dict[tuple[int, int], CriticalAttribution]
    unattributed_problem_sessions: float


@dataclass(frozen=True)
class MaskSlice:
    """One mask's clusters: sorted keys and their counts."""

    keys: np.ndarray
    sessions: np.ndarray
    problems: np.ndarray


def mask_slices(agg: EpochAggregate) -> dict[int, MaskSlice]:
    """Every non-empty mask's clusters, as zero-copy slices of the flat
    lattice. Only a whole lattice has every cluster to slice."""
    assert agg.lattice.floor == 1, "the reference reads the whole lattice"
    slices = {}
    for m in range(1, agg.codec.full_mask + 1):
        span = agg.lattice.span(m)
        slices[m] = MaskSlice(
            agg.lattice.keys[span], agg.sessions[span], agg.problems[span]
        )
    return slices


def _project(
    per: dict[int, MaskSlice], agg: EpochAggregate, fine: int, coarse: int
) -> np.ndarray:
    """Positions of mask ``fine``'s clusters within mask ``coarse``'s keys."""
    proj = per[fine].keys & agg.codec.field_masks()[coarse]
    return np.searchsorted(per[coarse].keys, proj)


def reference_detect(
    agg: EpochAggregate, config: ProblemClusterConfig | None = None
) -> ReferenceDetection:
    config = config or ProblemClusterConfig()
    codec = agg.codec
    full = codec.full_mask
    per = mask_slices(agg)
    masks = range(1, full + 1)
    min_sessions = config.resolve_min_sessions(agg.total_sessions)
    ratio_threshold = config.ratio_multiplier * agg.global_ratio

    def predicate(sessions: np.ndarray, problems: np.ndarray) -> np.ndarray:
        return cluster_problem_flags(
            sessions,
            problems,
            global_ratio=agg.global_ratio,
            ratio_threshold=ratio_threshold,
            min_sessions=min_sessions,
            min_problems=config.min_problems,
            significance_sigmas=config.significance_sigmas,
        )

    # -- problem clusters (paper 3.1) ----------------------------------
    significant = {
        m: np.nonzero(per[m].sessions >= min_sessions)[0] for m in masks
    }
    ok_flat = predicate(
        np.concatenate([per[m].sessions[significant[m]] for m in masks]),
        np.concatenate([per[m].problems[significant[m]] for m in masks]),
    )
    is_problem: dict[int, np.ndarray] = {}
    problem_rows: dict[int, np.ndarray] = {}
    start = 0
    for m in masks:
        sig = significant[m]
        ok = ok_flat[start : start + sig.size]
        start += sig.size
        flags = np.zeros(per[m].keys.size, dtype=bool)
        flags[sig] = ok
        is_problem[m] = flags
        problem_rows[m] = sig[ok]
    problems = {
        (m, int(per[m].keys[i])): ClusterStats(
            int(per[m].sessions[i]), int(per[m].problems[i])
        )
        for m in masks
        for i in problem_rows[m]
    }

    leaf = per[full]
    n_leaves = leaf.keys.size
    leaf_proj = {
        m: np.searchsorted(per[m].keys, leaf.keys & codec.field_masks()[m])
        for m in masks
    }
    covered = np.zeros(n_leaves, dtype=bool)
    for m in masks:
        covered |= is_problem[m][leaf_proj[m]]
    problem_coverage = (
        int(leaf.problems[covered].sum()) / agg.total_problems
        if agg.total_problems
        else 0.0
    )

    def result(critical, unattributed) -> ReferenceDetection:
        return ReferenceDetection(problems, problem_coverage, critical, unattributed)

    if n_leaves == 0 or agg.total_problems == 0:
        return result({}, 0.0)
    if not problems:
        return result({}, float(agg.total_problems))

    # -- descendants: the tainted set per mask --------------------------
    tainted: dict[int, np.ndarray] = {}
    for m in sorted(masks, key=popcount, reverse=True):
        sig = significant[m]
        parts = [sig[~is_problem[m][sig]]]
        for i in range(codec.n_attrs):
            child = m | 1 << i
            if child != m and tainted[child].size:
                parts.append(_project(per, agg, child, m)[tainted[child]])
        tainted[m] = np.unique(np.concatenate(parts))

    # -- ancestor removal ------------------------------------------------
    removal: dict[int, np.ndarray] = {}
    for m in masks:
        rows = problem_rows[m][~np.isin(problem_rows[m], tainted[m])]
        if rows.size == 0:
            continue
        mask_agg = per[m]
        ok = np.ones(rows.size, dtype=bool)
        for a in iter_submasks(m):
            anc = per[a]
            idx = _project(per, agg, m, a)[rows]
            still = is_problem[a][idx] & predicate(
                anc.sessions[idx] - mask_agg.sessions[rows],
                anc.problems[idx] - mask_agg.problems[rows],
            )
            ok &= ~still
        if ok.any():
            removal[m] = rows[ok]

    # -- minimality per leaf ---------------------------------------------
    candidate_at_leaf: dict[int, np.ndarray] = {}
    for m, rows in removal.items():
        flags = np.zeros(per[m].keys.size, dtype=bool)
        flags[rows] = True
        candidate_at_leaf[m] = flags[leaf_proj[m]]
    minimal: dict[int, np.ndarray] = {}
    for m, at_leaf in candidate_at_leaf.items():
        keep = at_leaf.copy()
        for a in iter_submasks(m):
            if a in candidate_at_leaf:
                keep &= ~candidate_at_leaf[a]
        minimal[m] = keep

    # -- attribution, equal shares on ties --------------------------------
    n_min = np.zeros(n_leaves, dtype=np.int64)
    for keep in minimal.values():
        n_min += keep
    leaf_problems = leaf.problems.astype(np.float64)
    leaf_sessions = leaf.sessions.astype(np.float64)
    share = np.where(n_min > 0, 1.0 / np.maximum(n_min, 1), 0.0)
    critical: dict[tuple[int, int], CriticalAttribution] = {}
    for m in sorted(minimal):
        rows = np.nonzero(minimal[m])[0]
        if rows.size == 0:
            continue
        mask_agg = per[m]
        idx = leaf_proj[m][rows]
        prob_acc = np.zeros(mask_agg.keys.size, dtype=np.float64)
        sess_acc = np.zeros(mask_agg.keys.size, dtype=np.float64)
        np.add.at(prob_acc, idx, leaf_problems[rows] * share[rows])
        np.add.at(sess_acc, idx, leaf_sessions[rows] * share[rows])
        for j in np.unique(idx):
            critical[(m, int(mask_agg.keys[j]))] = CriticalAttribution(
                attributed_problems=float(prob_acc[j]),
                attributed_sessions=float(sess_acc[j]),
                own_stats=ClusterStats(
                    int(mask_agg.sessions[j]), int(mask_agg.problems[j])
                ),
            )
    attributed = float(leaf_problems[n_min > 0].sum())
    return result(critical, float(agg.total_problems) - attributed)
