"""The columnar result table: layout, transfer and where keys decode.

Results keep cluster identities packed until something asks for a
:class:`ClusterKey`; every decode goes through
``KeyCodec.decode_many``, which counts ``results.keys_decoded``. A
sweep and the ``sweep`` command's table decode nothing, and the report
decodes each (metric, identity) at most once.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.report import build_report
from repro.cli import main
from repro.core.aggregation import ClusterStats
from repro.core.clusters import ClusterKey
from repro.core.critical import CriticalAttribution
from repro.core.epoching import EpochGrid
from repro.core.metrics import JOIN_FAILURE
from repro.core.pipeline import EpochAnalysis, EpochClusters, MetricAnalysis, ResultTable
from repro.core.substrate import analyze_sweep
from repro.obs import MetricsRegistry, use_metrics
from tests.property.test_dict_oracle import CONFIGS


def decoded_by(fn) -> int:
    with use_metrics(MetricsRegistry()) as metrics:
        fn()
    return int(metrics.get("results.keys_decoded"))


def test_sweep_and_its_table_decode_nothing(tiny_trace):
    def sweep_table():
        for analysis in analyze_sweep(tiny_trace.table, CONFIGS):
            for ma in analysis.metrics.values():
                ma.mean_problem_clusters, ma.mean_critical_clusters
                ma.mean_critical_cluster_coverage, ma.problem_ratio_series
                for e in ma.epochs:
                    e.n_problem_clusters, e.n_critical_clusters
                    e.critical_cluster_coverage

    assert decoded_by(sweep_table) == 0


def test_sweep_command_prints_zero_decodes(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["generate", "--workload", "tiny", "--seed", "3", "-o", str(trace)]) == 0
    args = ["sweep", str(trace), "--threshold-scales", "0.5,1,2",
            "--ratio-multipliers", "1.25,2", "--timings"]
    capsys.readouterr()
    assert main(args) == 0
    assert "cluster keys decoded: 0" in capsys.readouterr().out


def test_report_decodes_each_identity_at_most_once(tiny_trace):
    (analysis,) = analyze_sweep(tiny_trace.table, [CONFIGS[3]])
    n = decoded_by(lambda: build_report(tiny_trace.table, analysis))
    identities = sum(
        len(set(ma.problem_timelines()) | set(ma.critical_timelines()))
        for ma in analysis.metrics.values()
    )
    assert 0 < n <= identities
    assert decoded_by(lambda: build_report(tiny_trace.table, analysis)) == 0


def key(**pairs) -> ClusterKey:
    return ClusterKey.from_mapping(pairs)


def hand_epoch(i, problems, criticals=()) -> EpochAnalysis:
    return EpochAnalysis(
        epoch=i,
        total_sessions=100,
        total_problems=10,
        min_sessions=5,
        problem_cluster_coverage=0.5,
        problem_clusters={k: ClusterStats(20, 5) for k in problems},
        critical_clusters={
            k: CriticalAttribution(4.5, 18.0, ClusterStats(20, 5)) for k in criticals
        },
    )


def hand_table(epochs) -> MetricAnalysis:
    return MetricAnalysis(JOIN_FAILURE, EpochGrid(n_epochs=len(epochs)), epochs)


def test_hand_built_epochs_round_trip_in_order():
    a, b, c = key(cdn="A"), key(asn="X", site="S"), key(site="S")
    epochs = [hand_epoch(0, [b, a], [a]), hand_epoch(1, []), hand_epoch(2, [c, a], [c])]
    ma = hand_table(epochs)
    views = ma.table.epoch_analyses()
    for view, epoch in zip(views, epochs):
        assert isinstance(view.problem_clusters, EpochClusters)
        assert list(view.problem_clusters.items()) == list(epoch.problem_clusters.items())
        assert list(view.critical_clusters.items()) == list(epoch.critical_clusters.items())
        assert view == epoch
    assert list(ma.problem_timelines()) == [b, a, c]
    assert ma.problem_timelines()[a].epochs.tolist() == [0, 2]
    assert ma.critical_attribution_totals() == {a: 4.5, c: 4.5}


def test_pickle_carries_columns_and_label_tables_only(tiny_analysis):
    ma = tiny_analysis["join_failure"]
    ma.problem_timelines(), ma.epochs[0].critical_clusters.items()
    blob = pickle.dumps(ma)
    assert b"ClusterKey" not in blob and b"ClusterTimeline" not in blob
    back = pickle.loads(blob)
    assert back.epochs == ma.epochs
    assert list(back.problem_timelines()) == list(ma.problem_timelines())


def test_concat_keeps_one_block_per_codec_and_joins_labels():
    # Two hand-built tables code "A" and "B" in opposite orders.
    first = hand_table([hand_epoch(0, [key(cdn="A"), key(cdn="B")])]).table
    second = hand_table([hand_epoch(0, [key(cdn="B"), key(cdn="A")])]).table
    joined = ResultTable.concat([first, second, first])
    assert len(joined.codecs) == 2
    assert joined.epochs["block"].tolist() == [0, 1, 0]
    ma = MetricAnalysis(JOIN_FAILURE, EpochGrid(n_epochs=3), table=joined)
    assert {k: tl.epochs.tolist() for k, tl in ma.problem_timelines().items()} == {
        key(cdn="A"): [0, 1, 2],
        key(cdn="B"): [0, 1, 2],
    }


def test_concat_refuses_mixed_schemas():
    default = hand_table([hand_epoch(0, [key(cdn="A")])]).table
    custom = hand_table(
        [hand_epoch(0, [ClusterKey((("region", "eu"),))])]
    ).table
    with pytest.raises(ValueError, match="different schemas"):
        ResultTable.concat([default, custom])


def test_take_gathers_rows_of_any_positions():
    a, b = key(cdn="A"), key(cdn="B")
    table = hand_table([hand_epoch(0, [a]), hand_epoch(1, [a, b]), hand_epoch(2, [])]).table
    taken = table.take([2, 1, 1, 0])
    assert taken.epochs["n_problem"].tolist() == [0, 2, 2, 1]
    assert np.array_equal(taken.problem["key"][:2], table.problem["key"][1:3])
    assert len(table.take([])) == 0


def test_results_survive_appends_to_their_substrate():
    # The table's vocabularies grow in place on append; results keep the
    # label tables their keys were packed against, so they decode, and
    # pickle, the same after a vocabulary crosses a power of two.
    from repro.core.sessions import SessionTable
    from repro.core.substrate import AnalysisSubstrate
    from tests.conftest import make_session
    from tests.property.test_parallel_equivalence import SMALL_CONFIG

    rng = np.random.default_rng(3)
    table = SessionTable.from_sessions(
        make_session(
            start_time=float(i), cdn=f"c{i % 2}", asn=f"AS{i % 4}",
            join_failed=bool(rng.random() < (0.6 if i % 2 else 0.05)),
        )
        for i in range(400)
    )
    substrate = AnalysisSubstrate.build(table)
    analysis = substrate.analyze(SMALL_CONFIG)
    ma = analysis["join_failure"]
    before = pickle.loads(pickle.dumps(ma)).epochs
    assert key(cdn="c1") in before[0].problem_clusters
    # Nine new ASNs widen the asn field (the first), moving the cdn field.
    width = substrate.codec.widths.tolist()
    substrate.append(
        [make_session(start_time=500.0, asn=f"ASx{i}") for i in range(9)]
    )
    assert substrate.codec.widths.tolist() != width
    assert pickle.loads(pickle.dumps(ma)).epochs == before
    assert ma.epochs == before
