"""Workload presets — reproducible trace specifications.

A :class:`WorkloadSpec` fully determines a generated trace (world
shape, event catalogue shape, arrival volume, engine, seed).
:class:`StandardWorkloads` provides the presets used by the test suite,
the examples and the benchmark harness:

* ``tiny``  — seconds-fast; unit/integration tests.
* ``small`` — three days; examples and quick experiments.
* ``week``  — one week (168 epochs), the scale most paper figures use.
* ``two_weeks`` — the paper's full span; needed by the inter-week
  proactive analysis (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.trace.arrivals import ArrivalModel
from repro.trace.entities import WorldConfig
from repro.trace.events import EventConfig


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to deterministically generate one trace."""

    name: str
    seed: int
    n_epochs: int
    world: WorldConfig = field(default_factory=WorldConfig)
    events: EventConfig = field(default_factory=EventConfig)
    arrivals: ArrivalModel = field(default_factory=ArrivalModel)
    engine: str = "statistical"
    epoch_seconds: float = 3600.0
    #: Paper Section 6 ("hidden attributes"): annotate sessions with
    #: the client's geographic region as an eighth attribute. The
    #: clustering machinery is generic over the schema, so region
    #: participates in problem/critical clusters like any other
    #: attribute.
    include_region: bool = False

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if self.engine not in ("statistical", "mechanistic"):
            raise ValueError(
                f"engine must be 'statistical' or 'mechanistic', got {self.engine!r}"
            )
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return replace(self, seed=seed)


class StandardWorkloads:
    """Factory of the standard presets (all methods are static)."""

    @staticmethod
    def tiny(seed: int = 42) -> WorkloadSpec:
        return WorkloadSpec(
            name="tiny",
            seed=seed,
            n_epochs=24,
            world=WorldConfig(n_asns=40, n_cdns=6, n_sites=16),
            events=EventConfig(
                chronic_per_metric=1,
                major_per_week=6,
                minor_per_week=12,
                transient_per_week=12,
            ),
            arrivals=ArrivalModel(base_sessions_per_epoch=700),
        )

    @staticmethod
    def small(seed: int = 42) -> WorkloadSpec:
        return WorkloadSpec(
            name="small",
            seed=seed,
            n_epochs=72,
            world=WorldConfig(n_asns=80, n_cdns=8, n_sites=30),
            events=EventConfig(
                chronic_per_metric=1,
                major_per_week=8,
                minor_per_week=18,
                transient_per_week=20,
            ),
            arrivals=ArrivalModel(base_sessions_per_epoch=1200),
        )

    @staticmethod
    def week(seed: int = 42) -> WorkloadSpec:
        return WorkloadSpec(
            name="week",
            seed=seed,
            n_epochs=168,
            world=WorldConfig(n_asns=200, n_cdns=12, n_sites=60),
            arrivals=ArrivalModel(base_sessions_per_epoch=2500),
        )

    @staticmethod
    def two_weeks(seed: int = 42) -> WorkloadSpec:
        return WorkloadSpec(
            name="two_weeks",
            seed=seed,
            n_epochs=336,
            world=WorldConfig(n_asns=200, n_cdns=12, n_sites=60),
            arrivals=ArrivalModel(base_sessions_per_epoch=2500),
        )

    @staticmethod
    def tiny_with_region(seed: int = 42) -> WorkloadSpec:
        """Tiny workload with the geographic-region extra attribute."""
        return replace(
            StandardWorkloads.tiny(seed), name="tiny_with_region",
            include_region=True,
        )

    @staticmethod
    def mechanistic_tiny(seed: int = 42) -> WorkloadSpec:
        """Tiny workload driven by the chunk-level player simulation."""
        return replace(StandardWorkloads.tiny(seed), name="mechanistic_tiny",
                       engine="mechanistic",
                       arrivals=ArrivalModel(base_sessions_per_epoch=250))

    @staticmethod
    def mechanistic_day(seed: int = 42) -> WorkloadSpec:
        """One day at realistic volume on the chunk-level simulation
        (tractable thanks to the vectorized batch kernel)."""
        return WorkloadSpec(
            name="mechanistic_day",
            seed=seed,
            n_epochs=24,
            world=WorldConfig(n_asns=60, n_cdns=8, n_sites=24),
            events=EventConfig(
                chronic_per_metric=1,
                major_per_week=6,
                minor_per_week=12,
                transient_per_week=12,
            ),
            arrivals=ArrivalModel(base_sessions_per_epoch=1200),
            engine="mechanistic",
        )

    @staticmethod
    def mechanistic_week(seed: int = 42) -> WorkloadSpec:
        """A full week of chunk-level traces (the paper-figure scale)."""
        return replace(
            StandardWorkloads.mechanistic_day(seed),
            name="mechanistic_week",
            n_epochs=168,
        )

    @staticmethod
    def by_name(name: str, seed: int = 42) -> WorkloadSpec:
        factories = {
            "tiny": StandardWorkloads.tiny,
            "tiny_with_region": StandardWorkloads.tiny_with_region,
            "small": StandardWorkloads.small,
            "week": StandardWorkloads.week,
            "two_weeks": StandardWorkloads.two_weeks,
            "mechanistic_tiny": StandardWorkloads.mechanistic_tiny,
            "mechanistic_day": StandardWorkloads.mechanistic_day,
            "mechanistic_week": StandardWorkloads.mechanistic_week,
        }
        try:
            return factories[name](seed)
        except KeyError:
            raise KeyError(
                f"unknown workload {name!r}; known: {sorted(factories)}"
            ) from None
