"""Fault-campaign scenarios and the group-aware array job IR.

A *scenario* enumerates injection jobs against one protected netlist:
exhaustive single-fault sweeps (:class:`ExhaustiveSingleFault`), sampled
multi-fault campaigns (:class:`RandomMultiFault`), bounded multi-cycle traces
(:class:`TemporalSingleFault`, :class:`MultiShotGlitch`) and spatially
adjacent laser spots (:class:`LaserSpot`).  Every scenario lowers to one
common currency, the group-aware :class:`JobArrays` IR: CSR-style grouped
arrays where ``group_offsets`` delimits each job's slice of the flat
``net_rows``/``modes``/``cycles`` fault arrays.  The executor
(:mod:`repro.fi.executor`) plans, batches and classifies the IR; the object
:data:`InjectionJob` stream survives as a thin compatibility adapter over the
IR (:meth:`JobArrays.to_jobs`), preserved for outcome hydration only (the
scalar oracle walks the IR like the compiled engines).

Every scenario builds its IR directly in ``jobs_arrays`` -- no per-job
Python objects.  Regular scenarios (:class:`ExhaustiveSingleFault` and its
temporal subclass, :class:`MultiShotGlitch`) synthesise it with
``repeat``/``tile``; sampled ones (:class:`RandomMultiFault`,
:class:`LaserSpot`, and the behavioural bit-flip re-expression) describe
their fault group as a :data:`Pick` and :func:`drawn_fault_groups` replays
the historical ``random.Random(seed)`` call sequence from blocks of raw
generator words (:mod:`repro.fi.draws`), then regroups the trials stably by
transition context, so plans, batch boundaries and counters match the
historical object stream bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.structure import ScfiNetlist
from repro.fi.activate import activating_inputs
from repro.fi.model import Fault, FaultEffect
from repro.fsm.cfg import CfgEdge, control_flow_edges
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK0, MODE_STUCK1

#: A job: (context index, faults injected together during that transition).
InjectionJob = Tuple[int, Tuple[Fault, ...]]

#: FaultEffect -> fault mode of the flat fault arrays both compiled engines take.
EFFECT_MODES = {
    FaultEffect.TRANSIENT_FLIP: MODE_FLIP,
    FaultEffect.STUCK_AT_0: MODE_STUCK0,
    FaultEffect.STUCK_AT_1: MODE_STUCK1,
}

#: Inverse of :data:`EFFECT_MODES` for replaying the IR as objects.
_MODE_EFFECTS = {mode: effect for effect, mode in EFFECT_MODES.items()}

#: Sentinel in :attr:`JobArrays.cycles` for a fault active in every cycle.
EVERY_CYCLE = -1


def _require_effects(effects: Sequence[FaultEffect]) -> Tuple[FaultEffect, ...]:
    """Normalise an ``effects`` sequence, rejecting the silent-zero-job case.

    An empty tuple used to slip through construction and yield a campaign
    that injected nothing; now every scenario rejects it up front.
    """
    resolved = tuple(FaultEffect(effect) for effect in effects)
    if not resolved:
        raise ValueError("effects must be non-empty")
    return resolved


def _require_trace(cycles: object, duration: str) -> None:
    """Reject a trace shorter than one cycle or an unknown fault duration."""
    if not isinstance(cycles, int) or isinstance(cycles, bool) or cycles < 1:
        raise ValueError("cycles must be an integer >= 1")
    if duration not in FAULT_DURATIONS:
        raise ValueError(f"unknown fault duration {duration!r} (choose from {FAULT_DURATIONS})")


class JobArrays(NamedTuple):
    """A job stream lowered to group-aware flat arrays (the campaign IR).

    CSR layout: job ``i`` simulates transition context ``contexts[i]`` and
    injects the fault group ``group_offsets[i]:group_offsets[i + 1]`` of the
    flat per-fault arrays -- ``net_rows`` (dense net ids), ``modes``
    (array-native fault modes :data:`~repro.netlist.parallel.MODE_FLIP` /
    ``MODE_STUCK0`` / ``MODE_STUCK1``) and optionally ``cycles`` (the trace
    cycle each fault is active in, :data:`EVERY_CYCLE` for persistent faults;
    ``None`` when every fault of the stream is persistent/single-cycle).
    ``num_cycles`` is the trace length the groups are classified over (1 for
    combinational single-cycle campaigns).

    Scenario order is preserved exactly, so plans, batch boundaries and
    counters match the generic object stream bit for bit.
    """

    contexts: np.ndarray
    group_offsets: np.ndarray
    net_rows: np.ndarray
    modes: np.ndarray
    cycles: Optional[np.ndarray] = None
    num_cycles: int = 1

    @property
    def num_jobs(self) -> int:
        return self.contexts.size

    @property
    def num_faults(self) -> int:
        return self.net_rows.size

    def group_sizes(self) -> np.ndarray:
        """Faults per job (``(num_jobs,)``)."""
        return np.diff(self.group_offsets)

    @classmethod
    def single_fault(
        cls,
        contexts: np.ndarray,
        net_rows: np.ndarray,
        modes: np.ndarray,
        cycles: Optional[np.ndarray] = None,
        num_cycles: int = 1,
    ) -> "JobArrays":
        """IR for a one-fault-per-job stream (trivial ``arange`` offsets)."""
        return cls(
            contexts=contexts,
            group_offsets=np.arange(contexts.size + 1, dtype=np.intp),
            net_rows=net_rows,
            modes=modes,
            cycles=cycles,
            num_cycles=num_cycles,
        )

    def to_jobs(self, net_names: Sequence[str]) -> List[InjectionJob]:
        """Replay the IR as the equivalent object job stream.

        ``net_names`` is the inverse of the ``net_id`` mapping used to lower
        (``net_names[row] == net``).  The compatibility adapter for
        ``keep_outcomes`` hydration.
        """
        offsets = self.group_offsets
        cycles = self.cycles
        jobs: List[InjectionJob] = []
        for i in range(self.num_jobs):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            faults = tuple(
                Fault(
                    net=net_names[int(self.net_rows[k])],
                    effect=_MODE_EFFECTS[int(self.modes[k])],
                    cycle=None
                    if cycles is None or cycles[k] == EVERY_CYCLE
                    else int(cycles[k]),
                )
                for k in range(lo, hi)
            )
            jobs.append((int(self.contexts[i]), faults))
        return jobs

    def slice(self, start: int, stop: int) -> "JobArrays":
        """The IR of jobs ``[start, stop)`` (offsets re-based to zero).

        Batches ship their slice of the IR to fleet workers, so the flat
        fault arrays are cut at the group boundaries the offsets name.
        """
        lo = int(self.group_offsets[start])
        hi = int(self.group_offsets[stop])
        return JobArrays(
            contexts=self.contexts[start:stop],
            group_offsets=self.group_offsets[start : stop + 1] - lo,
            net_rows=self.net_rows[lo:hi],
            modes=self.modes[lo:hi],
            cycles=None if self.cycles is None else self.cycles[lo:hi],
            num_cycles=self.num_cycles,
        )

    def take(self, jobs: np.ndarray) -> "JobArrays":
        """The IR of the jobs at the ascending indices ``jobs``.

        A batch of the jobs a collapsed campaign still simulates gathers its
        own groups, so the stream is never copied whole.
        """
        starts = self.group_offsets[jobs]
        sizes = self.group_offsets[jobs + 1] - starts
        offsets = np.zeros(jobs.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        faults = np.repeat(starts - offsets[:-1], sizes)
        faults += np.arange(faults.size, dtype=np.intp)
        return JobArrays(
            contexts=self.contexts[jobs],
            group_offsets=offsets,
            net_rows=self.net_rows[faults],
            modes=self.modes[faults],
            cycles=None if self.cycles is None else self.cycles[faults],
            num_cycles=self.num_cycles,
        )


def _effect_modes(effects: Sequence[FaultEffect]) -> List[int]:
    return [EFFECT_MODES[effect] for effect in effects]


def _resolve_target_nets(scenario, campaign: "FaultCampaign", default: str) -> List[str]:
    """A scenario's target-net pool on ``campaign``.

    ``target_nets`` is ``"diffusion"``, ``"comb"``, ``None`` (``default``)
    or an explicit net list.  The two alias pools are built once per
    campaign and kept in ``campaign.lowering_cache``; an explicit list is
    validated against the netlist on every call.
    """
    target = default if scenario.target_nets is None else scenario.target_nets
    if not isinstance(target, str):
        nets = list(target)
        campaign.validate_target_nets(nets)
        return nets
    if target not in ("diffusion", "comb"):
        raise ValueError(f"unknown target-net alias {target!r}")
    key = ("target-pool", target)
    nets = campaign.lowering_cache.get(key)
    if nets is None:
        if target == "diffusion":
            nets = campaign.injector.diffusion_nets()
        else:
            nets = campaign.injector.all_comb_nets()
        campaign.lowering_cache[key] = nets
    return nets


def _pool_rows(campaign: "FaultCampaign", nets: Sequence[str]) -> np.ndarray:
    """The IR rows of ``nets`` on ``campaign``, in pool order."""
    net_id = campaign.net_index
    return np.array([net_id[net] for net in nets], dtype=np.intp)


class Sample(NamedTuple):
    """A drawn fault group: ``rng.sample(range(n), k)`` pool positions."""

    n: int
    k: int


#: Elements of one block of the centres x pool distance matrix: small
#: enough that its float temporaries come from the heap, not fresh mmaps.
_SPOT_CHUNK = 1 << 13


class Spot:
    """A drawn laser spot: centre ``c = rng.randrange(centres)`` of a target
    pool at coordinates ``(xs, ys)`` faults every pool position within
    ``radius`` of it (itself included), in pool order.

    A centre's members are listed when it is first drawn; :meth:`sizes`,
    every centre's group size, is counted only when effect draws need it.
    Both are kept for the lifetime of the object.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, radius: float):
        self.xs, self.ys, self.radius = xs, ys, radius
        self.centres = xs.size
        self._rows = max(1, _SPOT_CHUNK // max(xs.size, 1))
        self._members: Dict[int, np.ndarray] = {}
        self._sizes: Optional[np.ndarray] = None

    def _inside(self, centres: Sequence[int]) -> Iterable[np.ndarray]:
        """Each centre's membership mask over the pool, a block at a time."""
        xs, ys, radius_sq = self.xs, self.ys, self.radius**2
        for lo in range(0, len(centres), self._rows):
            block = centres[lo : lo + self._rows]
            yield from (xs - xs[block, None]) ** 2 + (ys - ys[block, None]) ** 2 <= radius_sq

    def sizes(self) -> np.ndarray:
        """The group size of every centre."""
        if self._sizes is None:
            self._sizes = np.array(
                [np.count_nonzero(row) for row in self._inside(range(self.centres))],
                dtype=np.intp,
            )
        return self._sizes

    def groups(self, drawn: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The pool positions of each drawn centre's group, flat and centre
        after centre, and the group sizes."""
        centres, inverse = np.unique(drawn, return_inverse=True)
        fresh = [centre for centre in centres.tolist() if centre not in self._members]
        for centre, row in zip(fresh, self._inside(fresh)):
            self._members[centre] = np.flatnonzero(row)
        groups = [self._members[centre] for centre in centres.tolist()]
        lengths = np.array([group.size for group in groups], dtype=np.intp)
        counts = lengths[inverse]
        flat = np.concatenate(groups) if groups else np.empty(0, dtype=np.intp)
        offsets = np.cumsum(lengths) - lengths
        starts = np.repeat(offsets[inverse] - (np.cumsum(counts) - counts), counts)
        return flat[starts + np.arange(starts.size)], counts


#: How a sampled scenario draws one trial's fault group.
Pick = Union[Sample, Spot]


def drawn_fault_groups(
    campaign: "FaultCampaign",
    nets: Sequence[str],
    trials: int,
    seed: int,
    effect_modes: Sequence[int],
    pick: Pick,
    cycle: Optional[int] = None,
    num_cycles: int = 1,
) -> JobArrays:
    """``trials`` randomly drawn fault groups over the pool ``nets``, as IR.

    Per trial the ``random.Random(seed)`` stream draws a context, then the
    group's pool positions as ``pick`` describes them (a :class:`Sample` or
    a laser :class:`Spot`), then -- only with several effects -- one effect
    per fault; :func:`~repro.fi.draws.replay_draws` decodes that stream from
    blocks of raw generator words, bit for bit.  The groups are then
    regrouped stably by context (lanes of one pass share it), which is
    exactly ``sort(key=context)`` over the drawn jobs.  Every fault fires in
    ``cycle``, or in every cycle when it is ``None``.
    """
    from repro.fi.draws import replay_draws  # loads only when a campaign samples

    draws = replay_draws(
        random.Random(seed), trials, len(campaign.contexts), pick, len(effect_modes)
    )
    order = np.argsort(draws.contexts, kind="stable")
    size = draws.sizes
    offsets = np.zeros(trials + 1, dtype=np.intp)
    np.cumsum(size[order], out=offsets[1:])
    total = int(offsets[-1])
    # Flat index of every fault of the regrouped jobs in the draw order.
    take = np.repeat((np.cumsum(size) - size)[order] - offsets[:-1], size[order])
    take += np.arange(total, dtype=np.intp)
    return JobArrays(
        contexts=draws.contexts.astype(np.intp)[order],
        group_offsets=offsets,
        net_rows=_pool_rows(campaign, nets)[draws.picks[take]],
        modes=np.asarray(effect_modes, dtype=np.uint8)[draws.effects[take]]
        if draws.effects is not None
        else np.full(total, effect_modes[0], dtype=np.uint8),
        cycles=None if cycle is None else np.full(total, cycle, dtype=np.int64),
        num_cycles=num_cycles,
    )


def _laser_spot(campaign: "FaultCampaign", nets: Sequence[str], radius: float) -> Spot:
    """The laser spots of the pool ``nets`` on ``campaign``'s placement.

    Kept per (pool, radius) in ``campaign.lowering_cache`` with the spot
    members drawn so far, so repeated runs on one executor skip the
    placement and the distance rows.
    """
    key = ("laser-spot", tuple(nets), radius)
    spot = campaign.lowering_cache.get(key)
    if spot is None:
        from repro.fi.placement import net_placement  # loads only for laser campaigns

        placement = net_placement(campaign.structure)
        xs = np.array([placement[net][0] for net in nets])
        ys = np.array([placement[net][1] for net in nets])
        spot = campaign.lowering_cache[key] = Spot(xs, ys, radius)
    return spot


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass
class ExhaustiveSingleFault:
    """Flip (or stick) every target net once per reachable transition.

    ``target_nets`` may be an explicit net list, ``"diffusion"`` (the MDS
    diffusion layer, the paper's Section 6.4 target, default) or ``"comb"``
    (the whole combinational cloud -- previously too slow to run by default,
    now a single bit-parallel sweep).
    """

    target_nets: object = None
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,)

    def __post_init__(self) -> None:
        if self.target_nets is not None and not isinstance(self.target_nets, str):
            self.target_nets = list(self.target_nets)
        self.effects = _require_effects(self.effects)

    def describe(self) -> str:
        return "exhaustive single-fault"

    def resolved_nets(self, campaign: "FaultCampaign") -> List[str]:
        return _resolve_target_nets(self, campaign, default="diffusion")

    def annotate(self, result: "CampaignResult", campaign: "FaultCampaign") -> None:
        result.target_nets = len(self.resolved_nets(campaign))

    def _cross_product(self, campaign: "FaultCampaign") -> Tuple[np.ndarray, ...]:
        """(contexts, net_rows, modes) of the (context x net x effect) grid."""
        net_ids = _pool_rows(campaign, self.resolved_nets(campaign))
        effect_modes = np.array(_effect_modes(self.effects), dtype=np.uint8)
        num_contexts = len(campaign.contexts)
        per_context = net_ids.size * effect_modes.size
        return (
            np.repeat(np.arange(num_contexts, dtype=np.intp), per_context),
            np.tile(np.repeat(net_ids, effect_modes.size), num_contexts),
            np.tile(effect_modes, num_contexts * net_ids.size),
        )

    def jobs_arrays(self, campaign: "FaultCampaign") -> JobArrays:
        """One single-fault job per (context, net, effect), in that order.

        The cross product is synthesised with ``repeat``/``tile`` instead of
        one Python object pair per job, which is what lets the numpy engine
        run wide campaigns without per-job interpreter overhead.
        """
        contexts, net_rows, modes = self._cross_product(campaign)
        return JobArrays.single_fault(contexts, net_rows, modes)


@dataclass
class RandomMultiFault:
    """Inject ``num_faults`` simultaneous random faults, ``trials`` times.

    The sampling sequence is seed-stable and engine-independent: trials are
    drawn first (matching the historical scalar implementation draw for draw)
    and only then regrouped by transition so the parallel engine can pack
    them into lanes.  With the default single-effect tuple no extra random
    draws happen, so legacy flip-only campaigns reproduce the historical
    counters; passing several effects additionally draws one effect per
    fault.

    ``num_faults`` must not exceed the size of the target-net pool: silently
    truncating the draw would run a weaker campaign than requested, so that
    case raises :class:`ValueError` instead.
    """

    num_faults: int
    trials: int
    target_nets: object = None
    seed: int = 0
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,)

    def __post_init__(self) -> None:
        if self.target_nets is not None and not isinstance(self.target_nets, str):
            self.target_nets = list(self.target_nets)
        self.effects = _require_effects(self.effects)

    def describe(self) -> str:
        return f"random {self.num_faults}-fault"

    def resolved_nets(self, campaign: "FaultCampaign") -> List[str]:
        return _resolve_target_nets(self, campaign, default="comb")

    def annotate(self, result: "CampaignResult", campaign: "FaultCampaign") -> None:
        result.target_nets = len(self.resolved_nets(campaign))

    def jobs_arrays(self, campaign: "FaultCampaign") -> JobArrays:
        if self.num_faults < 1:
            raise ValueError("num_faults must be >= 1")
        if not campaign.contexts:
            raise ValueError("the FSM has no reachable transitions")
        nets = self.resolved_nets(campaign)
        if self.num_faults > len(nets):
            raise ValueError(
                f"num_faults={self.num_faults} exceeds the {len(nets)} available "
                f"target nets; a truncated draw would silently weaken the campaign"
            )
        return drawn_fault_groups(
            campaign, nets, self.trials, self.seed, _effect_modes(self.effects),
            Sample(len(nets), self.num_faults),
        )


#: Durations a temporal single-fault scenario understands: ``"transient"``
#: injects at one cycle only, ``"persistent"`` holds the fault for the whole
#: trace (the classic stuck-at model of laser/glitch attacks).
FAULT_DURATIONS = ("transient", "persistent")


@dataclass
class TemporalSingleFault(ExhaustiveSingleFault):
    """Exhaustive single-fault sweep over bounded multi-cycle traces.

    Every (transition context, target net, effect) triple becomes one cycle
    trace of ``cycles`` clock edges with register feedback: the fault is
    active either during ``inject_cycle`` only (``duration="transient"``) or
    for the whole trace (``duration="persistent"``), and the trace is
    classified on its final state against the analytic fault-free trajectory.
    At ``cycles=1`` the counters coincide with :class:`ExhaustiveSingleFault`
    bit for bit -- the single-cycle campaigns are the ``N=1`` special case of
    this scenario.
    """

    cycles: int = 1
    duration: str = "transient"
    inject_cycle: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_trace(self.cycles, self.duration)
        if not 0 <= self.inject_cycle < self.cycles:
            raise ValueError(
                f"inject_cycle {self.inject_cycle} outside the {self.cycles}-cycle trace"
            )

    def describe(self) -> str:
        return f"temporal {self.duration} single-fault ({self.cycles} cycles)"

    def jobs_arrays(self, campaign: "FaultCampaign") -> JobArrays:
        contexts, net_rows, modes = self._cross_product(campaign)
        if self.duration == "persistent":
            cycles = None
        else:
            cycles = np.full(net_rows.size, self.inject_cycle, dtype=np.int64)
        return JobArrays.single_fault(
            contexts, net_rows, modes, cycles=cycles, num_cycles=self.cycles
        )


@dataclass
class MultiShotGlitch:
    """One glitch schedule -- ``(cycle, net, effect)`` shots -- per context.

    Models repeated/multi-shot injection equipment: every reachable
    transition context runs one ``cycles``-long trace during which each shot
    fires in its own cycle, and the final state is classified against the
    analytic fault-free trajectory.  ``cycles`` defaults to just past the
    last shot.
    """

    glitches: Sequence[Tuple[int, str, object]]
    cycles: Optional[int] = None

    def __post_init__(self) -> None:
        shots = []
        for cycle, net, effect in self.glitches:
            if not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0:
                raise ValueError(f"glitch cycle {cycle!r} must be an integer >= 0")
            shots.append((cycle, net, FaultEffect(effect)))
        if not shots:
            raise ValueError("a multi-shot glitch schedule needs at least one shot")
        self.glitches = tuple(shots)
        needed = max(cycle for cycle, _, _ in shots) + 1
        if self.cycles is None:
            self.cycles = needed
        elif (
            not isinstance(self.cycles, int)
            or isinstance(self.cycles, bool)
            or self.cycles < needed
        ):
            raise ValueError(
                f"cycles={self.cycles!r} does not cover the last shot (needs >= {needed})"
            )

    def describe(self) -> str:
        return f"multi-shot glitch ({len(self.glitches)} shots / {self.cycles} cycles)"

    def annotate(self, result: "CampaignResult", campaign: "FaultCampaign") -> None:
        result.target_nets = len({net for _, net, _ in self.glitches})

    def jobs_arrays(self, campaign: "FaultCampaign") -> JobArrays:
        """One group per context holding every shot, in schedule order."""
        campaign.validate_target_nets(net for _, net, _ in self.glitches)
        num_contexts = len(campaign.contexts)
        shot_cycles, shot_nets, shot_effects = zip(*self.glitches)
        return JobArrays(
            contexts=np.arange(num_contexts, dtype=np.intp),
            group_offsets=np.arange(num_contexts + 1, dtype=np.intp) * len(shot_nets),
            net_rows=np.tile(_pool_rows(campaign, shot_nets), num_contexts),
            modes=np.tile(np.array(_effect_modes(shot_effects), dtype=np.uint8), num_contexts),
            cycles=np.tile(np.array(shot_cycles, dtype=np.int64), num_contexts),
            num_cycles=self.cycles,
        )


@dataclass
class LaserSpot:
    """Sampled laser-spot campaigns: multi-net fault groups by adjacency.

    Models the paper's physical attacker -- a laser spot upsets every net
    within ``spot_radius`` of a hit point, not a single wire.  Placement
    comes from :func:`repro.fi.placement.net_placement` (diffusion-block
    column x logic depth, unit pitch); each of the ``spot_trials`` trials
    draws a transition context and a center net from the target pool, and
    faults every pool net inside the spot circle (the center always included,
    so every group has at least one fault).  Spots compose with the temporal
    traces: ``cycles > 1`` holds the spot for the whole trace
    (``duration="persistent"``, the default) or fires it in cycle 0 only
    (``"transient"``).

    Sampling is seed-stable: trials are drawn first in a fixed RNG sequence
    and then regrouped by transition, exactly like :class:`RandomMultiFault`,
    so counters are engine- and worker-count-independent.
    """

    spot_radius: float = 1.5
    spot_trials: int = 100
    target_nets: object = None
    seed: int = 0
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,)
    cycles: int = 1
    duration: str = "persistent"

    def __post_init__(self) -> None:
        if self.target_nets is not None and not isinstance(self.target_nets, str):
            self.target_nets = list(self.target_nets)
        self.effects = _require_effects(self.effects)
        if (
            isinstance(self.spot_radius, bool)
            or not isinstance(self.spot_radius, (int, float))
            or not self.spot_radius > 0
        ):
            raise ValueError("spot_radius must be a number > 0")
        if (
            not isinstance(self.spot_trials, int)
            or isinstance(self.spot_trials, bool)
            or self.spot_trials < 0
        ):
            raise ValueError("spot_trials must be an integer >= 0")
        _require_trace(self.cycles, self.duration)

    def describe(self) -> str:
        return f"laser spot (r={self.spot_radius:g}, {self.spot_trials} trials)"

    def resolved_nets(self, campaign: "FaultCampaign") -> List[str]:
        return _resolve_target_nets(self, campaign, default="comb")

    def annotate(self, result: "CampaignResult", campaign: "FaultCampaign") -> None:
        result.target_nets = len(self.resolved_nets(campaign))

    def jobs_arrays(self, campaign: "FaultCampaign") -> JobArrays:
        if not campaign.contexts:
            raise ValueError("the FSM has no reachable transitions")
        nets = self.resolved_nets(campaign)
        return drawn_fault_groups(
            campaign, nets, self.spot_trials, self.seed, _effect_modes(self.effects),
            _laser_spot(campaign, nets, float(self.spot_radius)),
            # A transient spot fires in cycle 0; a persistent one in every cycle.
            cycle=None if self.duration == "persistent" else 0,
            num_cycles=self.cycles,
        )


def effect_sweep_scenarios(
    effects: Sequence[FaultEffect] = (
        FaultEffect.TRANSIENT_FLIP,
        FaultEffect.STUCK_AT_0,
        FaultEffect.STUCK_AT_1,
    ),
    target_nets: object = None,
) -> Dict[str, ExhaustiveSingleFault]:
    """One exhaustive scenario per fault effect (flip / stuck-at-0 / stuck-at-1)."""
    return {
        effect.value: ExhaustiveSingleFault(target_nets=target_nets, effects=(effect,))
        for effect in effects
    }


def scfi_fault_regions(structure: ScfiNetlist) -> Dict[str, List[str]]:
    """Named structural fault-target regions of one SCFI netlist.

    Mirrors the behavioural target groups of :mod:`repro.fi.behavioral` at the
    netlist level: FT1 state register outputs, FT2 encoded control inputs, FT3
    both sides of the hardened function (selected control word feeding the
    diffusion, and the diffusion-internal XOR nets).
    """
    netlist = structure.netlist

    def non_constant(nets: Iterable[str]) -> List[str]:
        kept = []
        for net in sorted(set(nets)):
            driver = netlist.driver_of(net)
            if driver is not None and driver.gate_type.is_constant:
                continue
            kept.append(net)
        return kept

    encoded_inputs: List[str] = []
    for nets in structure.input_bits.values():
        encoded_inputs.extend(nets)
    return {
        "FT1_state": list(structure.state_q),
        "FT2_control": sorted(encoded_inputs),
        "FT3_phi_input": non_constant(structure.control_nets),
        "FT3_diffusion": list(structure.diffusion_nets),
    }


def region_sweep_scenarios(
    structure: ScfiNetlist,
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,),
    regions: Optional[Mapping[str, Sequence[str]]] = None,
) -> Dict[str, ExhaustiveSingleFault]:
    """Per-target-region exhaustive scenarios (FT1 / FT2 / FT3 sweeps)."""
    regions = regions if regions is not None else scfi_fault_regions(structure)
    return {
        name: ExhaustiveSingleFault(target_nets=list(nets), effects=tuple(effects))
        for name, nets in regions.items()
    }


def transition_contexts(structure: ScfiNetlist) -> List[Tuple[CfgEdge, Dict[str, int]]]:
    """(edge, activating raw inputs) for every reachable CFG edge."""
    fsm = structure.hardened.fsm
    contexts = []
    for edge in control_flow_edges(fsm):
        inputs = activating_inputs(fsm, edge)
        if inputs is not None:
            contexts.append((edge, inputs))
    return contexts
