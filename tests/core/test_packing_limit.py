"""Vocabularies at the 62-bit packing limit.

A session's attribute codes pack into one ``int64`` of at most 62 bits
(:class:`~repro.core.aggregation.KeyCodec`). At the limit every path
returns the reference answer; one bit past it, every path fails loudly
— a ``ValueError`` from the library, exit 2 from the CLI — and an
index that rejects a chunk, or an online detector that rejects an
epoch, is left as it was. The online detector indexes each epoch on
its own, so only the epoch's own vocabularies count toward the limit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core.aggregation import KeyCodec
from repro.core.attributes import DEFAULT_SCHEMA
from repro.core.critical import find_critical_clusters
from repro.core.index import TraceClusterIndex
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE, MetricThresholds
from repro.core.online import OnlineDetector
from repro.core.pipeline import analyze_trace
from repro.core.problems import find_problem_clusters
from repro.core.sessions import SessionTable
from repro.core.substrate import AnalysisSubstrate
from repro.io.traceio import write_sessions_csv, write_sessions_jsonl
from tests.core.direct_aggregate import aggregate_epoch
from tests.property.test_parallel_equivalence import (
    ALL_METRICS_CONFIG,
    SMALL_CONFIG,
    assert_equal_analyses,
    reference_analysis,
)
from tests.property.test_streaming_equivalence import (
    assert_equal_indexes,
    assert_equal_tables,
)

#: Odd multipliers: each of the six wide attributes permutes its 512
#: labels differently, so clusters of different attributes differ.
MULTIPLIERS = (1, 3, 5, 7, 11, 13)


def wide_table(
    n_last: int = 256, n_rows: int = 2048, start: float = 0.0, tag: str = ""
) -> SessionTable:
    """Six attributes with 512 labels and the last with ``n_last``:
    ``6 * 9 + 8 = 62`` bits at the default ``n_last``. Every session
    whose last attribute is one of its first four labels fails to
    join, so those four clusters are problem and critical clusters.
    ``tag`` goes into every label of the last attribute, so tables
    with different tags share no label there."""
    i = np.arange(n_rows)
    codes = np.empty((n_rows, len(DEFAULT_SCHEMA)), dtype=np.int32)
    for k, mult in enumerate(MULTIPLIERS):
        codes[:, k] = (i * mult + k) % 512
    codes[:, -1] = i % n_last
    vocabs = [[f"{name}{c}" for c in range(512)] for name in DEFAULT_SCHEMA.names]
    vocabs[-1] = [f"{DEFAULT_SCHEMA.names[-1]}{tag}{c}" for c in range(n_last)]
    failed = codes[:, -1] < 4
    return SessionTable(
        schema=DEFAULT_SCHEMA,
        vocabs=vocabs,
        codes=codes,
        start_time=start + (i % 60) * 60.0,
        duration_s=np.where(failed, 0.0, 600.0),
        buffering_s=np.where(i % 5 == 0, 30.0, 0.0) * ~failed,
        join_time_s=np.where(failed, np.nan, 1.0 + i % 7),
        bitrate_kbps=np.where(failed, np.nan, 500.0 + 100.0 * (i % 13)),
        join_failed=failed,
    )


def one_session(label: str, start: float) -> SessionTable:
    """One session whose last attribute carries ``label``."""
    vocabs = [["asn0"], ["cdn0"], ["site0"], ["content_type0"], ["player0"],
              ["browser0"], [label]]
    return SessionTable(
        schema=DEFAULT_SCHEMA,
        vocabs=vocabs,
        codes=np.zeros((1, len(DEFAULT_SCHEMA)), dtype=np.int32),
        start_time=[start],
        duration_s=[600.0],
        buffering_s=[0.0],
        join_time_s=[2.0],
        bitrate_kbps=[2000.0],
        join_failed=[False],
    )


class TestBatchPath:
    def test_exactly_62_bits_analyzes_to_the_reference(self):
        table = wide_table()
        assert int(KeyCodec.from_table(table).widths.sum()) == 62
        analysis = analyze_trace(table, config=ALL_METRICS_CONFIG)
        assert_equal_analyses(
            reference_analysis(table, ALL_METRICS_CONFIG), analysis
        )
        critical = analysis["join_failure"].epochs[0].critical_clusters
        assert {key.label() for key in critical} == {
            f"[connection_type=connection_type{c}]" for c in range(4)
        }

    def test_63_bits_fail_the_build(self):
        table = wide_table(n_last=257)
        with pytest.raises(ValueError, match="63 bits"):
            TraceClusterIndex.build(table)
        with pytest.raises(ValueError, match="63 bits"):
            analyze_trace(table, config=SMALL_CONFIG)

    @pytest.mark.parametrize("writer,suffix", [
        (write_sessions_csv, ".csv"),
        (write_sessions_jsonl, ".jsonl"),
    ])
    def test_cli_exits_2_past_the_limit(self, tmp_path, capsys, writer, suffix):
        path = tmp_path / f"wide{suffix}"
        writer(wide_table(n_last=257, n_rows=600), path)
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "63 bits" in err[0]


class TestRejectedAppend:
    """A chunk that would need 63 bits changes nothing it touches."""

    def test_index_state_survives_and_later_chunks_append(self):
        base = wide_table()
        substrate = AnalysisSubstrate.build(wide_table())  # extended in place
        index = substrate.index
        thresholds = MetricThresholds()
        index.warm_metric_masks(ALL_METRICS, thresholds)
        before = {
            "n": len(index.table),
            "vocabs": [list(v) for v in index.table.vocabs],
            "codes": index.table.codes.copy(),
            "leaf_keys": index.leaf_keys.copy(),
            "row_to_leaf": index.row_to_leaf.copy(),
            "masks": [
                [m.copy() for m in index.metric_masks(metric, thresholds)]
                for metric in ALL_METRICS
            ],
        }

        with pytest.raises(ValueError, match="63 bits"):
            substrate.append(one_session("connection_type_new", 3600.0))

        assert substrate.index is index
        assert len(index.table) == before["n"]
        assert index.table.vocabs == before["vocabs"]
        assert np.array_equal(index.table.codes, before["codes"])
        assert np.array_equal(index.leaf_keys, before["leaf_keys"])
        assert np.array_equal(index.row_to_leaf, before["row_to_leaf"])
        for metric, masks in zip(ALL_METRICS, before["masks"]):
            for now, then in zip(index.metric_masks(metric, thresholds), masks):
                assert np.array_equal(now, then)

        # An in-range chunk (labels the table already has) appends, and
        # the next index equals a build over the accepted chunks.
        accepted = wide_table(start=7200.0)
        substrate.append(accepted)
        fresh = TraceClusterIndex.build(SessionTable.concat([base, accepted]))
        index = substrate.index
        assert_equal_indexes(index, fresh)
        for metric in ALL_METRICS:
            for now, cold in zip(
                index.metric_masks(metric, thresholds),
                fresh.metric_masks(metric, thresholds),
            ):
                assert np.array_equal(now, cold)

    def test_online_detector_rejects_the_epoch_and_carries_on(self):
        config = SMALL_CONFIG.problem_config
        detector = OnlineDetector(JOIN_FAILURE, problem_config=config)
        first, second = wide_table(), wide_table(start=7200.0)
        detector.observe_epoch(first)
        substrate = detector.substrate
        history = list(detector.history)
        alerts = [replace(alert) for alert in detector.all_alerts]
        assert len(alerts) == 4
        with pytest.raises(ValueError, match="63 bits"):
            detector.observe_epoch(wide_table(n_last=257, start=3600.0))
        assert detector.epochs_observed == 1
        assert detector.history == history
        assert detector.all_alerts == alerts
        assert detector.substrate is substrate
        assert_equal_tables(detector.substrate.table, first)

        observation = detector.observe_epoch(second)
        assert observation.epoch == 1
        batch = analyze_trace(
            SessionTable.concat([first, second]), config=SMALL_CONFIG
        )
        # Batch epochs are hours: the second epoch starts at hour 2.
        expected = batch["join_failure"].epochs[2]
        assert observation.total_sessions == expected.total_sessions
        assert observation.total_problems == expected.total_problems
        assert observation.n_problem_clusters == len(expected.problem_clusters)
        assert observation.n_critical_clusters == len(expected.critical_clusters)
        assert detector.critical_keys_at(1) == set(expected.critical_clusters)
        assert len(expected.critical_clusters) == 4

        # A label no earlier epoch had fits the epoch's own 62 bits.
        observation = detector.observe_epoch(
            one_session("connection_type_new", 10800.0)
        )
        assert (observation.epoch, observation.total_sessions) == (2, 1)
        assert len(detector.substrate) == 1


class TestOnlineEpochs:
    def test_epochs_past_62_bits_together_are_each_observed(self):
        """Three epochs that fit 62 bits each, with 768 labels of the
        last attribute between them (64 bits as one vocabulary): every
        epoch is observed and equals the direct per-epoch oracle."""
        tags = ("", "_b", "_c")
        epochs = [
            wide_table(start=3600.0 * e, tag=tag) for e, tag in enumerate(tags)
        ]
        for table in epochs:
            assert int(KeyCodec.from_table(table).widths.sum()) == 62
        with pytest.raises(ValueError, match="64 bits"):
            KeyCodec.layout([512] * 6 + [3 * 256])

        config = SMALL_CONFIG.problem_config
        detector = OnlineDetector(JOIN_FAILURE, problem_config=config)
        for epoch, (table, tag) in enumerate(zip(epochs, tags)):
            observation = detector.observe_epoch(table)
            agg = aggregate_epoch(
                table, np.arange(len(table)), JOIN_FAILURE, epoch=epoch,
                thresholds=detector.thresholds,
            )
            problems = find_problem_clusters(agg, config)
            critical = find_critical_clusters(problems)
            assert observation.epoch == epoch
            assert observation.total_sessions == agg.total_sessions
            assert observation.total_problems == agg.total_problems
            assert observation.n_problem_clusters == problems.n_clusters
            assert detector.critical_keys_at(epoch) == set(critical.decoded())
            assert {key.label() for key in observation.critical_keys} == {
                f"[connection_type=connection_type{tag}{c}]" for c in range(4)
            }
        assert detector.epochs_observed == 3
