"""Shared experiment context: one generated trace + its full analysis.

Every figure/table runner consumes an :class:`ExperimentContext`. The
standard contexts are cached per (workload, seed) so the benchmark
harness pays for generation and pipeline analysis once and each bench
times only its own computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.pipeline import (
    AnalysisConfig,
    MetricAnalysis,
    TraceAnalysis,
    analyze_trace,
    restrict_epochs,
)
from repro.core.substrate import AnalysisSubstrate, analyze_sweep
from repro.trace.generator import GeneratedTrace, generate_trace
from repro.trace.workloads import StandardWorkloads


@dataclass
class ExperimentContext:
    """A trace, its ground truth, and the full pipeline analysis.

    The context also keeps the :class:`AnalysisSubstrate` the analysis
    ran over, so follow-up config variants (:meth:`sweep`,
    :meth:`reanalyze`) reuse the packed table and cluster index instead
    of rebuilding them.
    """

    trace: GeneratedTrace
    analysis: TraceAnalysis
    substrate: AnalysisSubstrate | None = field(default=None, repr=False)

    @classmethod
    def generate(
        cls,
        workload: str = "week",
        seed: int = 42,
        config: AnalysisConfig | None = None,
        workers: int | str | None = None,
    ) -> "ExperimentContext":
        """Generate a workload and analyze it.

        ``workers`` selects the epoch-parallel executor (see
        :func:`repro.core.pipeline.analyze_trace`); it changes wall
        time only, never results.
        """
        trace = generate_trace(StandardWorkloads.by_name(workload, seed=seed))
        substrate = AnalysisSubstrate.build(trace.table)
        analysis = analyze_trace(
            trace.table, config=config, grid=trace.grid, workers=workers,
            substrate=substrate,
        )
        return cls(trace=trace, analysis=analysis, substrate=substrate)

    def sweep(
        self,
        configs: Sequence[AnalysisConfig],
        workers: int | str | None = None,
    ) -> list[TraceAnalysis]:
        """Analyze config variants, reusing this context's substrate.

        Results are bit-identical to independent ``analyze_trace``
        calls per config (each at its own ``epoch_seconds``).
        """
        return analyze_sweep(
            self.trace.table,
            configs,
            substrate=self.substrate,
            workers=workers,
        )

    def reanalyze(
        self,
        config: AnalysisConfig,
        workers: int | str | None = None,
    ) -> TraceAnalysis:
        """One config variant over the cached substrate."""
        return self.sweep([config], workers=workers)[0]

    @property
    def n_epochs(self) -> int:
        return self.analysis.grid.n_epochs

    def metric(self, name: str) -> MetricAnalysis:
        return self.analysis[name]

    def split(self, name: str, train_epochs: range, test_epochs: range
              ) -> tuple[MetricAnalysis, MetricAnalysis]:
        """Train/test epoch split of one metric's analysis."""
        ma = self.analysis[name]
        return (
            restrict_epochs(ma, list(train_epochs)),
            restrict_epochs(ma, list(test_epochs)),
        )


@lru_cache(maxsize=4)
def default_context(workload: str = "week", seed: int = 42) -> ExperimentContext:
    """Cached standard context (shared across benches in one process)."""
    return ExperimentContext.generate(workload=workload, seed=seed)
