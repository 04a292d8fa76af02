"""Trace generation: world + events + arrivals + QoE engine -> table.

``generate_trace`` is the substrate's entry point. It is fully
deterministic given the workload's seed: independent random substreams
(via ``numpy.random.SeedSequence.spawn``) drive world construction,
event-catalogue generation, arrival volumes, attribute sampling and
QoE noise, so changing e.g. the event configuration does not perturb
the sampled population.

Sessions are made in two phases (DESIGN.md §9). Each epoch is
*prepared* in epoch order — its codes sampled, its events applied, the
engine's draws from the session stream made, its start times drawn —
and consecutive prepared epochs are *simulated* together, one pass of
at most :data:`_PASS_SESSIONS` sessions at a time. The simulation draws
nothing from the session stream, so the pass size never changes a
trace; it bounds the memory of the prepared state and sets how many
rows each lockstep kernel step of the mechanistic engine covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.epoching import EpochGrid
from repro.core.sessions import SessionTable
from repro.obs import current_metrics, current_tracer
from repro.trace.entities import World, build_world
from repro.trace.events import EventCatalog, GroundTruthEvent, generate_catalog
from repro.trace.population import AttributeSampler, constraint_codes
from repro.trace.qoe import EffectArrays, QoEEngine, StatisticalQoEEngine
from repro.trace.workloads import WorkloadSpec


#: Sessions one simulation pass holds at most (an epoch larger than the
#: bound is a pass of its own). A few ``mechanistic_day`` epochs: wider
#: passes take fewer kernel steps, and hold more rows at once.
_PASS_SESSIONS = 4_800


@dataclass
class GeneratedTrace:
    """A generated trace with its ground truth attached."""

    spec: WorkloadSpec
    world: World
    catalog: EventCatalog
    grid: EpochGrid
    table: SessionTable

    @property
    def n_sessions(self) -> int:
        return len(self.table)


def _make_engine(spec: WorkloadSpec, world: World) -> QoEEngine:
    if spec.engine == "statistical":
        return StatisticalQoEEngine(world)
    # Imported lazily: the mechanistic engine pulls in the whole player
    # simulation substrate (and tests swap in their per-session
    # reference engine by patching the module attribute).
    from repro.sim.engine import MechanisticQoEEngine

    return MechanisticQoEEngine(world)


def apply_events(
    codes: np.ndarray,
    events: list[GroundTruthEvent],
    event_codes: dict[str, list[tuple[int, int]]],
    n: int,
) -> EffectArrays:
    """Combined per-session effect arrays for the active ``events``."""
    effects = EffectArrays.neutral(n)
    for event in events:
        rows = np.ones(n, dtype=bool)
        for col, code in event_codes[event.event_id]:
            rows &= codes[:, col] == code
        if not rows.any():
            continue
        eff = event.effects
        if eff.bandwidth_factor != 1.0:
            effects.bandwidth_factor[rows] *= eff.bandwidth_factor
        if eff.bitrate_cap_kbps != float("inf"):
            effects.bitrate_cap_kbps[rows] = np.minimum(
                effects.bitrate_cap_kbps[rows], eff.bitrate_cap_kbps
            )
        if eff.buffering_factor != 1.0:
            effects.buffering_factor[rows] *= eff.buffering_factor
        if eff.join_time_factor != 1.0:
            effects.join_time_factor[rows] *= eff.join_time_factor
        if eff.join_failure_odds != 1.0:
            effects.join_failure_odds[rows] *= eff.join_failure_odds
    return effects


def _passes(counts: np.ndarray) -> list[range]:
    """Consecutive epochs grouped into passes of at most
    :data:`_PASS_SESSIONS` sessions."""
    passes: list[range] = []
    start = total = 0
    for epoch, n in enumerate(counts.tolist()):
        if epoch > start and total + n > _PASS_SESSIONS:
            passes.append(range(start, epoch))
            start, total = epoch, 0
        total += n
    passes.append(range(start, len(counts)))
    return passes


def generate_trace(
    spec: WorkloadSpec,
    world: World | None = None,
    catalog: EventCatalog | None = None,
) -> GeneratedTrace:
    """Generate a full session trace from a workload specification.

    ``world`` and ``catalog`` may be supplied explicitly (e.g. to plant
    a hand-written event and test its recovery); otherwise both are
    derived from the spec's seed.
    """
    root = np.random.SeedSequence(spec.seed)
    ss_world, ss_events, ss_arrivals, ss_sessions = root.spawn(4)
    tracer = current_tracer()

    if world is None:
        with tracer.span("generate.world") as span:
            world = build_world(spec.world, np.random.default_rng(ss_world))
            span.set(
                n_asns=len(world.asns), n_cdns=len(world.cdns),
                n_sites=len(world.sites),
            )
    if catalog is None:
        with tracer.span("generate.events") as span:
            catalog = generate_catalog(
                world, spec.n_epochs, spec.events,
                np.random.default_rng(ss_events),
            )
            span.set(n_events=len(catalog))

    sampler = AttributeSampler(world)
    engine = _make_engine(spec, world)
    arrivals_rng = np.random.default_rng(ss_arrivals)
    session_rng = np.random.default_rng(ss_sessions)
    counts = spec.arrivals.sample(spec.n_epochs, arrivals_rng)
    event_codes = {
        e.event_id: constraint_codes(world, e.constraints) for e in catalog
    }

    all_codes = []
    all_start = []
    batches = []
    passes = _passes(counts)

    with tracer.span("generate.qoe") as span:
        for epochs in passes:
            prepared = []
            for epoch in epochs:
                n = int(counts[epoch])
                codes = sampler.sample(n, session_rng)
                active = catalog.active_at(epoch)
                effects = apply_events(codes, active, event_codes, n)
                prepared.append(engine.prepare(codes, effects, session_rng))
                all_codes.append(codes)
                all_start.append(
                    epoch * spec.epoch_seconds
                    + session_rng.uniform(0.0, spec.epoch_seconds, size=n)
                )
            batches.extend(engine.simulate(prepared))
            # Dead once simulated; the last pass's would otherwise live
            # through the table's concatenation, the generation's peak.
            del prepared
        span.set(
            engine=spec.engine,
            n_epochs=spec.n_epochs,
            n_sessions=int(counts.sum()),
            passes=len(passes),
            largest_pass=max(int(counts[list(p)].sum()) for p in passes),
        )
        metrics = current_metrics()
        metrics.inc("generate.epochs", spec.n_epochs)
        metrics.inc("generate.passes", len(passes))

    codes = np.concatenate(all_codes, axis=0)
    vocabs = world.vocabularies()
    schema = SessionTable.empty().schema
    if spec.include_region:
        # Paper Section 6 "hidden attributes": geography as an extra
        # attribute, derived from the client ASN's region.
        from repro.core.attributes import AttributeSchema
        from repro.trace.entities import REGIONS

        schema = AttributeSchema(names=schema.names + ("region",))
        region_col = world.region_of_asn[codes[:, 0]].astype(np.int32)
        codes = np.column_stack([codes, region_col])
        vocabs = vocabs + [list(REGIONS)]

    table = SessionTable(
        schema=schema,
        vocabs=vocabs,
        codes=codes,
        start_time=np.concatenate(all_start),
        duration_s=np.concatenate([b.duration_s for b in batches]),
        buffering_s=np.concatenate([b.buffering_s for b in batches]),
        join_time_s=np.concatenate([b.join_time_s for b in batches]),
        bitrate_kbps=np.concatenate([b.bitrate_kbps for b in batches]),
        join_failed=np.concatenate([b.join_failed for b in batches]),
    )
    grid = EpochGrid(
        origin=0.0, epoch_seconds=spec.epoch_seconds, n_epochs=spec.n_epochs
    )
    return GeneratedTrace(
        spec=spec, world=world, catalog=catalog, grid=grid, table=table
    )
