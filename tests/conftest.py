"""Shared fixtures for the test suite.

Heavy artifacts (generated traces, full pipeline analyses) are
session-scoped; tests must treat them as immutable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Session, SessionTable, analyze_trace
from repro.experiments.context import ExperimentContext
from repro.trace import StandardWorkloads, generate_trace

#: Attribute template used by hand-built sessions.
BASE_ATTRS = {
    "asn": "AS1",
    "cdn": "cdn_a",
    "site": "site_a",
    "content_type": "vod",
    "player": "flash",
    "browser": "chrome",
    "connection_type": "dsl",
}


def make_session(
    start_time: float = 0.0,
    duration_s: float = 600.0,
    buffering_s: float = 0.0,
    join_time_s: float = 2.0,
    bitrate_kbps: float = 2000.0,
    join_failed: bool = False,
    **attrs: str,
) -> Session:
    """Hand-build one session with attribute overrides."""
    merged = dict(BASE_ATTRS)
    merged.update(attrs)
    if join_failed:
        join_time_s = float("nan")
        bitrate_kbps = float("nan")
        duration_s = 0.0
        buffering_s = 0.0
    return Session(
        attrs=merged,
        start_time=start_time,
        duration_s=duration_s,
        buffering_s=buffering_s,
        join_time_s=join_time_s,
        bitrate_kbps=bitrate_kbps,
        join_failed=join_failed,
    )


def planted_failure_table(
    n: int = 4000,
    bad_cdn: str = "cdn_bad",
    bad_fail_p: float = 0.6,
    base_fail_p: float = 0.05,
    seed: int = 0,
) -> SessionTable:
    """One-epoch table with a planted high-failure CDN."""
    rng = np.random.default_rng(seed)
    sessions = []
    for _ in range(n):
        cdn = f"cdn_{rng.integers(0, 3)}"
        if rng.random() < 0.25:
            cdn = bad_cdn
        fail_p = bad_fail_p if cdn == bad_cdn else base_fail_p
        sessions.append(
            make_session(
                start_time=float(rng.uniform(0, 3600)),
                join_failed=bool(rng.random() < fail_p),
                cdn=cdn,
                asn=f"AS{rng.integers(0, 5)}",
                site=f"site_{rng.integers(0, 4)}",
            )
        )
    return SessionTable.from_sessions(sessions)


def views_in_batches(index, rows, floor: int = 1, trace_rows=None) -> list:
    """The view of ``rows`` at ``floor`` built alone, second in a batch
    of two epochs, in the middle of a batch of three, and (given the
    trace's per-epoch ``trace_rows``, ``rows`` among them) in a batch of
    every epoch of the trace. The other epochs of the two- and
    three-epoch batches are halves of the table's rows, at the same
    floor. Every view must give what the lone one gives."""
    every = np.arange(len(index.table))
    batches = [[rows], [every[::2], rows], [every[::2], rows, every[1::2]]]
    if trace_rows is not None:
        batches.append(list(trace_rows))
    views = []
    for batch in batches:
        (at,) = [k for k, other in enumerate(batch) if other is rows]
        views.append(
            index.epoch_views(batch, list(range(len(batch))), [floor] * len(batch))[at]
        )
    return views


@pytest.fixture(scope="session")
def failure_table() -> SessionTable:
    return planted_failure_table()


@pytest.fixture(scope="session")
def tiny_trace():
    return generate_trace(StandardWorkloads.tiny(seed=7))


@pytest.fixture(scope="session")
def tiny_analysis(tiny_trace):
    return analyze_trace(tiny_trace.table, grid=tiny_trace.grid)


@pytest.fixture(scope="session")
def tiny_ctx(tiny_trace, tiny_analysis) -> ExperimentContext:
    return ExperimentContext(trace=tiny_trace, analysis=tiny_analysis)
