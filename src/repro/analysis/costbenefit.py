"""Cost-aware what-if analysis (paper Section 6, "cost of remedial
measures").

The paper's improvement analysis is cost-agnostic and explicitly flags
a cost-benefit variant as future work. This module supplies one: every
critical cluster carries a *fix cost* and the selection greedily
maximises alleviated problem sessions per unit cost, producing an
improvement-vs-budget curve to compare against the cost-blind coverage
ranking.

Cost model (pluggable): fixing a cluster disrupts or re-provisions the
sessions attributed to it, so the default cost is

``cost = base_cost + session_cost * attributed_sessions``

with per-attribute-type base costs reflecting that e.g. contracting an
extra CDN is cheaper than re-engineering an ISP (the paper's examples:
"contract local CDN operators", "offer finer-grained bitrates").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.analysis.whatif import row_alleviations
from repro.core.clusters import ClusterKey
from repro.core.pipeline import MetricAnalysis

#: Default relative base costs per attribute type: remedies that the
#: paper calls "simple and well known" (site-side fixes, CDN
#: contracts) are cheap; client-side ISP problems are expensive.
DEFAULT_BASE_COSTS: dict[str, float] = {
    "site": 1.0,
    "cdn": 2.0,
    "connection_type": 4.0,
    "asn": 6.0,
}
#: Base cost for combination clusters / other attribute types.
DEFAULT_OTHER_BASE_COST = 8.0
#: Cost per attributed session (disruption / re-provisioning).
DEFAULT_SESSION_COST = 0.001


@dataclass(frozen=True)
class CostModel:
    """Pluggable fix-cost model for critical clusters."""

    base_costs: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BASE_COSTS)
    )
    other_base_cost: float = DEFAULT_OTHER_BASE_COST
    session_cost: float = DEFAULT_SESSION_COST

    def cost_of(self, key: ClusterKey, attributed_sessions: float) -> float:
        if key.depth == 1:
            base = self.base_costs.get(key.attributes[0], self.other_base_cost)
        else:
            base = self.other_base_cost
        return base + self.session_cost * attributed_sessions


@dataclass
class BudgetPoint:
    """One point on the improvement-vs-budget curve."""

    budget: float
    spent: float
    n_fixed: int
    improvement: float


@dataclass
class CostBenefitResult:
    """Greedy cost-aware selection vs the cost-blind coverage ranking."""

    metric: str
    budgets: np.ndarray
    cost_aware: list[BudgetPoint]
    cost_blind: list[BudgetPoint]

    def advantage_at(self, index: int) -> float:
        """Improvement gap (aware - blind) at budget index ``index``."""
        return (
            self.cost_aware[index].improvement
            - self.cost_blind[index].improvement
        )


def _cluster_economics(
    ma: MetricAnalysis, cost_model: CostModel
) -> list[tuple[ClusterKey, float, float]]:
    """Per critical identity, in order of first appearance: (key, total
    alleviation, fix cost). Each identity's rows are summed in epoch
    order (``bincount`` adds in input order), as a running sum over
    the epochs would."""
    ids, keys = ma.table.identities("critical")
    gains = np.bincount(ids, weights=row_alleviations(ma), minlength=len(keys))
    sessions = np.bincount(
        ids, weights=ma.table.critical["attributed_sessions"], minlength=len(keys)
    )
    return [
        (key, gain, cost_model.cost_of(key, n))
        for key, gain, n in zip(keys, gains.tolist(), sessions.tolist())
    ]


def _select_under_budgets(
    economics: list[tuple[ClusterKey, float, float]],
    order_key: Callable[[tuple[ClusterKey, float, float]], float],
    budgets: np.ndarray,
    total_problems: int,
    greedy_fill: bool,
) -> list[BudgetPoint]:
    """Fix clusters in ranked order subject to each budget.

    ``greedy_fill=True`` skips unaffordable items and keeps filling
    with cheaper ones (the cost-aware strategy); ``False`` takes the
    ranking as a strict prefix and stops at the first item that does
    not fit — the behaviour of an operator who ranks by impact alone.
    """
    ranked = sorted(economics, key=order_key)
    points = []
    for budget in budgets:
        spent = 0.0
        gained = 0.0
        fixed = 0
        for _, gain, cost in ranked:
            if spent + cost > budget:
                if greedy_fill:
                    continue  # cheaper items may still fit
                break
            spent += cost
            gained += gain
            fixed += 1
        points.append(
            BudgetPoint(
                budget=float(budget),
                spent=spent,
                n_fixed=fixed,
                improvement=gained / total_problems if total_problems else 0.0,
            )
        )
    return points


def cost_benefit_analysis(
    ma: MetricAnalysis,
    cost_model: CostModel | None = None,
    budgets: np.ndarray | None = None,
) -> CostBenefitResult:
    """Improvement-vs-budget under cost-aware vs cost-blind selection.

    * cost-aware: clusters ranked by alleviation per unit cost;
    * cost-blind: the paper's coverage ranking (alleviation only).
    """
    cost_model = cost_model or CostModel()
    economics = _cluster_economics(ma, cost_model)
    total_cost = sum(cost for _, _, cost in economics)
    if budgets is None:
        top = max(total_cost, 1.0)
        budgets = np.unique(np.concatenate([
            np.linspace(0.0, top, 9), [top]
        ]))
    budgets = np.asarray(budgets, dtype=np.float64)
    total = ma.total_problem_sessions

    aware = _select_under_budgets(
        economics,
        order_key=lambda item: -(item[1] / max(item[2], 1e-12)),
        budgets=budgets,
        total_problems=total,
        greedy_fill=True,
    )
    blind = _select_under_budgets(
        economics,
        order_key=lambda item: -item[1],
        budgets=budgets,
        total_problems=total,
        greedy_fill=False,
    )
    return CostBenefitResult(
        metric=ma.metric.name, budgets=budgets, cost_aware=aware,
        cost_blind=blind,
    )
