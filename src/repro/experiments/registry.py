"""Registry of every reproducible experiment.

Maps the paper's figure/table ids to runners; drives the CLI's
``experiment`` subcommand, the benchmark harness and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments import runners
from repro.experiments.context import ExperimentContext
from repro.experiments.runners import ExperimentResult


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    experiment_id: str
    title: str
    paper_ref: str
    workload: str  # workload the paper-faithful run uses
    runner: Callable[[ExperimentContext], ExperimentResult]

    def run(self, ctx: ExperimentContext) -> ExperimentResult:
        return self.runner(ctx)


EXPERIMENTS: dict[str, Experiment] = {
    e.experiment_id: e
    for e in (
        Experiment("fig1", "Quality metric CDFs", "Figure 1", "week", runners.run_fig1),
        Experiment("fig2", "Problem-session timeseries", "Figure 2", "week",
                   runners.run_fig2),
        Experiment("fig7", "Problem-cluster prevalence", "Figure 7", "week",
                   runners.run_fig7),
        Experiment("fig8", "Problem-cluster persistence", "Figure 8(a,b)", "week",
                   runners.run_fig8),
        Experiment("fig9", "Cluster count timeseries", "Figure 9", "week",
                   runners.run_fig9),
        Experiment("tab1", "Critical-cluster coverage", "Table 1", "week",
                   runners.run_table1),
        Experiment("fig10", "Critical-cluster type breakdown", "Figure 10", "week",
                   runners.run_fig10),
        Experiment("tab2", "Cross-metric Jaccard overlap", "Table 2", "week",
                   runners.run_table2),
        Experiment("tab3", "Most prevalent critical clusters", "Table 3", "week",
                   runners.run_table3),
        Experiment("fig11", "Top-k improvement curves", "Figure 11(a,b,c)", "week",
                   runners.run_fig11),
        Experiment("fig12", "Attribute-restricted selection", "Figure 12", "week",
                   runners.run_fig12),
        Experiment("tab4", "Proactive what-if", "Table 4", "two_weeks",
                   runners.run_table4),
        Experiment("fig13", "Reactive repair timeseries", "Figure 13", "week",
                   runners.run_fig13),
        Experiment("tab5", "Reactive what-if", "Table 5", "week",
                   runners.run_table5),
        Experiment("validation", "Ground-truth validation", "(substrate)", "week",
                   runners.run_validation),
        Experiment("abl-threshold", "Threshold sensitivity", "(ablation)", "week",
                   runners.run_ablation_thresholds),
        Experiment("abl-hhh", "HHH baseline comparison", "(ablation)", "week",
                   runners.run_ablation_hhh),
        Experiment("abl-engine", "Engine agreement", "(ablation)", "week",
                   runners.run_ablation_engines),
        Experiment("abl-scale", "Scale ablation", "(ablation)", "week",
                   runners.run_ablation_scale),
        Experiment("abl-parallel", "Parallel ablation", "(ablation)", "week",
                   runners.run_ablation_parallel),
        Experiment("abl-epoch", "Epoch-length sensitivity", "(ablation)", "week",
                   runners.run_ablation_epoch_length),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str, ctx: ExperimentContext
) -> ExperimentResult:
    return get_experiment(experiment_id).run(ctx)
