"""Tests for the markdown report generator."""

from repro.analysis.report import build_report, write_report


class TestBuildReport:
    def test_contains_all_sections(self, tiny_ctx):
        text = build_report(
            tiny_ctx.trace.table, tiny_ctx.analysis,
            catalog=tiny_ctx.trace.catalog,
        )
        for heading in (
            "# Video quality problem-structure report",
            "## Dataset quality overview",
            "## Problem structure",
            "## Recurrence and persistence",
            "## Cross-metric structure",
            "## Top critical clusters",
            "## Engagement impact",
            "## Improvement potential",
        ):
            assert heading in text, heading

    def test_mentions_every_metric(self, tiny_ctx):
        text = build_report(tiny_ctx.trace.table, tiny_ctx.analysis)
        for metric in tiny_ctx.analysis.metric_names:
            assert f"### {metric}" in text

    def test_ground_truth_tags_present_with_catalog(self, tiny_ctx):
        text = build_report(
            tiny_ctx.trace.table, tiny_ctx.analysis,
            catalog=tiny_ctx.trace.catalog,
        )
        tags = {e.tag for e in tiny_ctx.trace.catalog}
        assert any(tag in text for tag in tags)

    def test_without_catalog_marks_unknown(self, tiny_ctx):
        text = build_report(tiny_ctx.trace.table, tiny_ctx.analysis)
        assert "(organic/unknown)" in text

    def test_custom_title(self, tiny_ctx):
        text = build_report(
            tiny_ctx.trace.table, tiny_ctx.analysis, title="My incident report"
        )
        assert text.startswith("# My incident report")


class TestReportSpan:
    def test_build_report_runs_under_its_span(self, tiny_ctx):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer(name="t")
        with use_tracer(tracer):
            text = build_report(tiny_ctx.trace.table, tiny_ctx.analysis)
        tracer.finish()
        spans = {s.name: s for s in tracer.root.walk()}
        assert spans["report.build"].attrs["sessions"] == len(
            tiny_ctx.trace.table
        )
        # The report's own leaf index nests under its span.
        assert any(
            c.name == "index.build" for c in spans["report.build"].walk()
        )
        assert text == build_report(tiny_ctx.trace.table, tiny_ctx.analysis)


class TestWriteReport:
    def test_writes_file(self, tiny_ctx, tmp_path):
        path = write_report(
            tmp_path / "report.md", tiny_ctx.trace.table, tiny_ctx.analysis
        )
        assert path.exists()
        assert path.read_text().startswith("#")

    def test_cli_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main(["report", "--workload", "tiny", "--seed", "5",
                     "-o", str(out)]) == 0
        assert out.exists()
        assert "Improvement potential" in out.read_text()
        assert "report.build" not in capsys.readouterr().out

        timed = tmp_path / "timed.md"
        assert main(["report", "--workload", "tiny", "--seed", "5",
                     "-o", str(timed), "--timings"]) == 0
        assert timed.read_text() == out.read_text()
        printed = capsys.readouterr().out
        # The span tree printed after the pipeline timings holds the
        # report's build seconds.
        line = next(
            ln for ln in printed.splitlines()
            if ln.split()[:1] == ["report.build"]
        )
        assert printed.index(line) > printed.index("Pipeline timings")
        assert float(line.split()[1]) > 0


class TestCliRemedies:
    def test_suggest_only(self, capsys):
        from repro.cli import main

        assert main(["remedies", "--workload", "tiny", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Suggested remedies" in out or "no remedies" in out

    def test_with_evaluation(self, capsys):
        from repro.cli import main

        assert main(["remedies", "--workload", "tiny", "--seed", "5",
                     "--evaluate"]) == 0
        out = capsys.readouterr().out
        if "Suggested remedies" in out:
            assert "Remedy evaluation" in out
