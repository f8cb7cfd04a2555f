"""Fault-campaign execution over the bit-parallel engines and the oracle.

:class:`FaultCampaign` is bound to one :class:`ScfiNetlist` and owns the
engine form of its netlist (bit-parallel: golden lanes first, then one fault
group per lane), the per-edge activation contexts and the verdict tables
that classify batches.  Every scenario (:mod:`repro.fi.scenarios`) lowers
itself to the group-aware :class:`~repro.fi.scenarios.JobArrays` IR first
(its ``jobs_arrays``), and the IR is the only currency between the
executor, the lane planner (:mod:`repro.fi.planner`), the three engines and
the worker fleet.
The object :data:`~repro.fi.scenarios.InjectionJob` stream is re-materialised
from the IR (:meth:`JobArrays.to_jobs`) only for ``keep_outcomes`` records.

There is one execution path, on every engine: plan -> batch -> reply.
Every job is a bounded trace of ``cycles`` clock edges with register
feedback, classified on its final state against the analytic fault-free
trajectory of its transition context; a classic single-cycle campaign is a
trace of one cycle.  The *plan* (:mod:`repro.fi.planner`) is cut points and
golden-lane contexts.  Both compiled engines take a batch's flat fault arrays
straight onto grouped lanes through their one entry point
(:meth:`~repro.netlist.parallel.CompiledNetlist.step_cycles_fault_arrays`).
Every batch, a one-context batch included, gathers its lane words from one
per-context bit matrix (a little-endian ``packbits``, read as uint64 rows by
numpy and as ints by the bignum engine), and the state codes come back
through the engines' one reader
(:meth:`~repro.netlist.parallel.LaneValues.codes_by_id`); the ``"scalar"``
oracle walks the batch's IR slice one trace per job on the
:class:`~repro.netlist.simulate.InstrumentedNetlist`, whose fault cells are
gates.  Each returns the golden contexts' codes and one observed state code
per job, and the golden check, the counters and kept outcomes come from
those codes.  :attr:`FaultCampaign.last_dispatch` therefore reads
``"array-native"`` on every engine (``"cached"`` marks store replays one
layer up).

Only the S state codewords can end a trace in anything but detection, so a
batch is classified by hashing its codes onto state indices (S for every
invalid code) and one gather from its trace length's verdict table.

On the compiled engines, equivalent single faults are collapsed before
planning.  A single fault live in one cycle has only two behaviours there:
with ``g`` its net's fault-free value, a stuck-at-g changes nothing and a
flip acts exactly like a stuck-at-not-g.  So (rule (a)) a job whose one
fault forces ``g`` in every cycle it is live -- a stuck-at-v on a net that
is v in all of them -- takes no lane and gets its context's analytic golden
outcome.  Every other one-cycle fault is a flip of its net in its cycle
``c``, and (rule (c)) a flip of a net inside a fanout-free region is a flip
of the region's stem -- a net with more or fewer than one reader pin, or one
a flop reads -- or is masked by the gate that reads it, whose side inputs
keep their fault-free values; the classic fanout-free-region collapsing of
test generation, applied per context.  Masked jobs get the golden outcome
too, and (rule (b)) the jobs that land on one (cycle, context, stem) slot
share one lane across every scenario of one :meth:`FaultCampaign.run_sweep`.
The fault-free values come from one multi-context pass per trace cycle,
checked against the analytic trajectories and cached per executor, and so
is the stem slot of every (cycle, context, net) cell, built from them and
the compiled op list on the first run with one-cycle jobs; the table of
shared outcomes lives for one sweep.  Multi-fault groups (laser spots,
random multi-fault trials, multi-shot schedules) and single faults live in
several cycles that rule (a) does not settle keep their lanes.  The planner
only sees the jobs that take a lane, and each collapsed job's class (and
code) is expanded back in job order, so counters and kept outcomes are
those of the full stream.  The ``"scalar"`` oracle collapses nothing: it
simulates every job, which keeps it an independent check of all three
rules.

Batches run in-process (``workers=1``, the default) or on a
:class:`~repro.fi.fleet.WorkerFleet`, the one process pool: an owned fleet of
``workers=N`` processes, or a borrowed one (``fleet=``, as the campaign
service passes its long-lived fleet, with the harden-stage ``scope`` that
lets the fleet's workers keep the netlist warm across executors).
Consecutive batches travel in contiguous chunks as small pickles (cut points
plus IR slice); each worker builds its engine once and replies per batch
with every job's class index, plus the per-job codes when outcomes are kept.
The parent merges replies in job order, so counters and kept outcomes are
bit-identical to single-process runs on every engine.  Progress takes one
``(stage, detail)`` callback, the :class:`~repro.api.session.Session`'s own:
``("campaign", name)`` before each scenario of a sweep and ``("batch",
(done, total))`` after each merged batch.

Fault targets are validated up front: a scenario naming a net the netlist
does not contain, or emitting an IR row outside the netlist, raises
:class:`ValueError` (on every engine) instead of silently reporting the
fault as masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.structure import ScfiNetlist
from repro.fi.injector import ScfiFaultInjector, cfg_successor_map
from repro.fi.model import (
    Classification,
    Fault,
    FaultEffect,
    FaultOutcome,
)
from repro.fi.planner import CampaignPlan, PlannedBatch, plan_batches
from repro.fi.scenarios import (
    EVERY_CYCLE,
    InjectionJob,
    JobArrays,
    transition_contexts,
)
from repro.fsm.cfg import CfgEdge
from repro.netlist.parallel import (
    _OP_AND2,
    _OP_MUX2,
    _OP_NAND2,
    _OP_NOR2,
    _OP_OR2,
    MODE_STUCK0,
    WORD_DTYPE,
    CompiledNetlist,
)
from repro.netlist.parallel_np import NumpyCompiledNetlist
from repro.netlist.simulate import InstrumentedNetlist

if TYPE_CHECKING:  # the fleet loads only when a run shards
    from repro.fi.fleet import WorkerFleet

#: Fault groups packed into one bit-parallel pass (plus the golden lane 0)
#: on the bignum engine, where each extra lane lengthens every big-int op.
DEFAULT_LANE_WIDTH = 256

#: Default lane budget of the word-sliced numpy engine: lanes cost 1/64 of a
#: machine word each, so wide passes amortise the per-batch overhead instead
#: of inflating per-op cost.
DEFAULT_NUMPY_LANE_WIDTH = 4096

#: Engine a campaign runs on when the caller names none (specs, the library
#: wrappers, the evaluation harnesses and the service fleet alike).
DEFAULT_ENGINE = "parallel-numpy"

#: Progress callback ``(stage, detail)``: :meth:`FaultCampaign.run_sweep`
#: reports ``("campaign", name)`` before each scenario and
#: ``("batch", (done, total))`` after each merged batch.
ProgressCallback = Callable[[str, Any], None]


class EngineInfo(NamedTuple):
    """Static engine metadata recorded in experiment provenance.

    ``word_width`` is the machine word the engine slices lanes onto (``None``
    for the arbitrary-precision bignum and scalar paths); ``default_lane_width``
    is the lane budget used when a campaign does not pin one.
    """

    word_width: Optional[int]
    default_lane_width: int


#: Metadata for every built-in engine; ``FaultCampaign.ENGINES`` derives from
#: the (sorted) keys, so CLI choices and the API registry track this table.
ENGINE_INFO: Dict[str, EngineInfo] = {
    "parallel": EngineInfo(word_width=None, default_lane_width=DEFAULT_LANE_WIDTH),
    "parallel-numpy": EngineInfo(word_width=64, default_lane_width=DEFAULT_NUMPY_LANE_WIDTH),
    "scalar": EngineInfo(word_width=None, default_lane_width=DEFAULT_LANE_WIDTH),
}


#: The netlist form each built-in engine evaluates.
_ENGINE_FORMS = {
    "parallel": CompiledNetlist,
    "parallel-numpy": NumpyCompiledNetlist,
    "scalar": InstrumentedNetlist,
}


@dataclass
class CampaignResult:
    """Aggregated outcome of a fault campaign.

    ``redirected`` counts undetected within-CFG deviations (the Section 7
    limitation); ``hijacked`` counts undetected deviations onto states that
    are not CFG successors of the faulted transition's source.
    ``transitions_evaluated`` counts the *distinct* transition contexts the
    scenario's jobs actually touched -- not the number of reachable CFG
    edges -- so per-transition rates stay meaningful for scenarios that
    restrict themselves to a context subset.
    """

    name: str
    total_injections: int = 0
    masked: int = 0
    detected: int = 0
    redirected: int = 0
    hijacked: int = 0
    transitions_evaluated: int = 0
    target_nets: int = 0
    outcomes: List[FaultOutcome] = field(default_factory=list)
    keep_outcomes: bool = False

    def tally_bulk(self, classification: Classification, count: int) -> None:
        """Bump the counter for ``count`` identically classified injections."""
        self.total_injections += count
        if classification is Classification.MASKED:
            self.masked += count
        elif classification is Classification.DETECTED:
            self.detected += count
        elif classification is Classification.REDIRECTED:
            self.redirected += count
        else:
            self.hijacked += count

    def record(self, outcome: FaultOutcome) -> None:
        self.tally_bulk(outcome.classification, 1)
        if self.keep_outcomes:
            self.outcomes.append(outcome)

    @property
    def hijack_rate(self) -> float:
        """Fraction of injections that left the CFG undetected."""
        if self.total_injections == 0:
            return 0.0
        return self.hijacked / self.total_injections

    @property
    def detection_rate(self) -> float:
        if self.total_injections == 0:
            return 0.0
        return self.detected / self.total_injections

    @property
    def undetected_deviation_rate(self) -> float:
        """Fraction of injections that deviated the control flow undetected."""
        if self.total_injections == 0:
            return 0.0
        return (self.hijacked + self.redirected) / self.total_injections

    def counters(self) -> Tuple[int, int, int, int]:
        """(masked, detected, redirected, hijacked) -- for oracle comparisons."""
        return (self.masked, self.detected, self.redirected, self.hijacked)

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able form: counters, rates and (when kept) outcomes.

        Enums are lowered to their wire values -- faults as ``[net, effect]``
        pairs and classifications as strings, the same compact conventions the
        worker wire format uses -- so results persist without pickling.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "total_injections": self.total_injections,
            "masked": self.masked,
            "detected": self.detected,
            "redirected": self.redirected,
            "hijacked": self.hijacked,
            "transitions_evaluated": self.transitions_evaluated,
            "target_nets": self.target_nets,
            "hijack_rate": self.hijack_rate,
            "detection_rate": self.detection_rate,
            "undetected_deviation_rate": self.undetected_deviation_rate,
        }
        if self.keep_outcomes:
            data["outcomes"] = [
                {
                    "faults": [[fault.net, fault.effect.value] for fault in outcome.faults],
                    "source_state": outcome.source_state,
                    "expected_state": outcome.expected_state,
                    "observed_code": outcome.observed_code,
                    "observed_state": outcome.observed_state,
                    "classification": outcome.classification.value,
                }
                for outcome in self.outcomes
            ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        """Restore a result from its :meth:`to_dict` form (cache replay).

        Derived rates are recomputed from the counters, not read back.  The
        wire format keys faults as ``[net, effect]`` pairs (no ``cycle``
        field), matching what :meth:`to_dict` emits.
        """
        outcomes_data = data.get("outcomes")
        result = cls(
            name=data["name"],
            total_injections=data["total_injections"],
            masked=data["masked"],
            detected=data["detected"],
            redirected=data["redirected"],
            hijacked=data["hijacked"],
            transitions_evaluated=data["transitions_evaluated"],
            target_nets=data["target_nets"],
            keep_outcomes=outcomes_data is not None,
        )
        if outcomes_data is not None:
            result.outcomes = [
                FaultOutcome.of_faults(
                    tuple(
                        Fault(net=net, effect=FaultEffect(effect))
                        for net, effect in outcome["faults"]
                    ),
                    source_state=outcome["source_state"],
                    expected_state=outcome["expected_state"],
                    observed_code=outcome["observed_code"],
                    observed_state=outcome["observed_state"],
                    classification=Classification(outcome["classification"]),
                )
                for outcome in outcomes_data
            ]
        return result

    def format(self) -> str:
        return (
            f"{self.name}: {self.total_injections} injections over "
            f"{self.transitions_evaluated} transitions / {self.target_nets} nets -> "
            f"{self.hijacked} hijacks ({100.0 * self.hijack_rate:.2f} %), "
            f"{self.redirected} in-CFG redirections, "
            f"{self.detected} detected, {self.masked} masked"
        )


#: Classification by wire index (workers ship the index, not the enum --
#: pickling 10k enum members costs more than the netlist evaluation).
_CLASSIFICATIONS = tuple(Classification)

#: Batch reply: the class index (into ``_CLASSIFICATIONS``) of every job of
#: the batch plus, for ``keep_outcomes`` campaigns, the per-job observed
#: state codes.  Both sides index via ``_CLASSIFICATIONS``, so the format
#: survives enum reordering or extension.
_BatchReply = Tuple[np.ndarray, Optional[Sequence[int]]]

#: The unit of execution and of the fleet wire: a batch and its IR slice.
_Unit = Tuple[PlannedBatch, JobArrays]


class _Shared:
    """Outcomes of the one-cycle faults simulated so far in one sweep, for
    one trace length.  Slot ``k`` holds context ``k``'s golden outcome, which
    every job a rule masks reads.  Slot ``contexts + c * contexts * nets + k
    * nets + s`` holds the class index (``-1`` until simulated) and, with
    kept outcomes, the code of a flip of the stem ``s`` live in cycle ``c``
    of context ``k``: every one-cycle fault that lands there shares it."""

    def __init__(self, classes: np.ndarray, codes: Optional[np.ndarray]):
        self.classes = classes
        self.codes = codes


class _Collapse:
    """How one job stream splits into lanes and jobs a rule settles.

    ``simulated`` lists the jobs that take a lane (``None``: every job).
    ``copies`` lists the jobs whose outcome is a slot of ``shared`` (``None``:
    every job), ``slots`` their slots, and ``leaders`` / ``leader_slots`` the
    simulated copies that fill a slot for the rest.
    """

    def __init__(
        self,
        simulated: Optional[np.ndarray],
        copies: Optional[np.ndarray],
        slots: np.ndarray,
        leaders: np.ndarray,
        leader_slots: np.ndarray,
        shared: _Shared,
    ):
        self.simulated = simulated
        self.copies = copies
        self.slots = slots
        self.leaders = leaders
        self.leader_slots = leader_slots
        self.shared = shared


def _chunk_bounds(total: int, workers: int) -> List[Tuple[int, int]]:
    """Cut ``range(total)`` into at most ``workers * 4`` contiguous spans.

    The one task-chunking rule of sharded runs: it cuts a plan's batches
    into batch ranges, so a fleet of ``workers`` gets a few tasks each.
    """
    chunk = max(1, -(-total // (workers * 4)))
    return [(start, min(start + chunk, total)) for start in range(0, total, chunk)]


class _StateLookup(NamedTuple):
    """A perfect hash of the S state codewords: bucket ``code % modulus`` of
    ``states`` / ``codes`` holds one codeword's state index and the codeword
    (S and 0 in an empty bucket)."""

    codewords: np.ndarray
    modulus: object  # np.uint64, or an int for object codes
    states: np.ndarray
    codes: np.ndarray

    @classmethod
    def of(cls, codewords: np.ndarray) -> "_StateLookup":
        """The lookup with the smallest modulus that keeps the codewords apart."""
        values = codewords.tolist()
        modulus = len(values)
        while len({code % modulus for code in values}) < len(values):
            modulus += 1
        buckets = [code % modulus for code in values]
        states = np.full(modulus, len(values), dtype=np.intp)
        states[buckets] = np.arange(len(values))
        codes = np.zeros(modulus, dtype=codewords.dtype)
        codes[buckets] = codewords
        return cls(codewords, codes.dtype.type(modulus), states, codes)

    def index(self, codes: Sequence[int]) -> np.ndarray:
        """Each code's state index, or S for a code that is no codeword.
        Codes take the codewords' dtype first: numpy reads the oracle's list
        of ints as int64, and NumPy < 2 takes ``int64 % uint64`` to float64."""
        codes = np.asarray(codes, dtype=self.codes.dtype)
        buckets = (codes % self.modulus).astype(np.intp)
        return np.where(self.codes[buckets] == codes, self.states[buckets], self.codewords.size)


def _stem_slots(compiled: CompiledNetlist, fault_free: np.ndarray, num_contexts: int) -> np.ndarray:
    """Rule (c)'s table: where a flip of each (cycle, context, net) cell lands.

    A *stem* is a net with more or fewer than one reader pin, or a net a
    flop reads.  Any other net ``n`` reaches the flops only through its one
    reader gate, whose side inputs keep their fault-free values (nothing
    else reads ``n``).  So a flip of ``n`` either flips the reader's output
    ``o`` -- and is then exactly a flip of ``o`` -- or is masked there.  The
    reader passes the flip on: XOR2, XNOR2, INV and BUF always; AND2 and
    NAND2 when the other input is 1; OR2 and NOR2 when it is 0; MUX2 on a
    data pin when the select picks that pin, and on the select pin when the
    data inputs differ.  A stem no pin and no flop reads masks every flip.

    ``fault_free`` is :meth:`FaultCampaign._fault_free`'s ``(cycles,
    contexts * nets)`` table.  The result has its shape and holds, per cell,
    the slot of a :class:`_Shared` table the flip lands on: ``contexts + c *
    contexts * nets + k * nets + s`` for the stem ``s`` in cycle ``c`` of
    context ``k``, or ``k``, the context's golden slot, when it is masked.
    Every row walks to its stems at once, by pointer jumping: each net points
    at itself (a live stem), at the masked sink (a dead stem, or a reader
    that masks it) or at its reader's output, and every pass squares the
    jumps until no pointer moves.
    """
    num_nets = compiled.num_nets
    sink = num_nets  # the masked sink, and an all-zero value column
    # The op list, flattened: op i is ``fields[heads[i]:]``, (opcode, output,
    # arity operands).
    ops = compiled.ops
    arity = np.fromiter(map(len, ops), dtype=np.intp, count=len(ops)) - 2
    fields = np.fromiter(chain.from_iterable(ops), dtype=np.intp)
    heads = np.cumsum(arity + 2) - (arity + 2)
    codes, outs = fields[heads], fields[heads + 1]
    # One entry per reader pin: its gate, its position and the net it reads.
    gates = np.repeat(np.arange(len(ops)), arity)
    positions = np.arange(gates.size) - np.repeat(np.cumsum(arity) - arity, arity)
    nets = fields[heads[gates] + 2 + positions]
    pins = np.full((len(ops), 3), sink, dtype=np.intp)
    pins[gates, positions] = nets
    readers = np.bincount(nets, minlength=num_nets)
    flop_read = np.zeros(num_nets, dtype=bool)
    flop_read[[d_id for _, d_id in compiled.flop_d_ids]] = True
    live = (readers > 0) | flop_read
    # Every net with one reader pin and no flop reading it, its gate and pin.
    chained = ~flop_read[nets] & (readers[nets] == 1)
    nets, gates, positions = nets[chained], gates[chained], positions[chained]
    codes = codes[gates]
    # The reader passes the flip on where ``value[x] ^ value[y] != invert``.
    x = np.full(nets.size, sink, dtype=np.intp)
    y = np.full(nets.size, sink, dtype=np.intp)
    invert = np.ones(nets.size, dtype=bool)
    disjunctive = (codes == _OP_OR2) | (codes == _OP_NOR2)
    gated = disjunctive | (codes == _OP_AND2) | (codes == _OP_NAND2)
    x[gated] = pins[gates[gated], 1 - positions[gated]]
    invert[gated] = disjunctive[gated]
    data = (codes == _OP_MUX2) & (positions < 2)
    x[data] = pins[gates[data], 2]
    invert[data] = positions[data] == 0
    select = (codes == _OP_MUX2) & (positions == 2)
    x[select] = pins[gates[select], 0]
    y[select] = pins[gates[select], 1]
    invert[select] = False

    rows = fault_free.shape[0] * num_contexts
    width = num_nets + 1
    values = np.zeros((rows, width), dtype=np.uint8)
    values[:, :num_nets] = fault_free.reshape(rows, num_nets)
    passes = (values[:, x] ^ values[:, y]) != invert
    # Pointers index the flattened (rows, nets + 1) grid, so one jump is one
    # plain gather.
    pointers = np.empty((rows, width), dtype=np.intp)
    pointers[:, :num_nets] = np.where(live, np.arange(num_nets), sink)
    pointers[:, sink] = sink
    pointers[:, nets] = np.where(passes, outs[gates], sink)
    base = np.arange(0, rows * width, width, dtype=np.intp)[:, None]
    pointers += base
    pointers = pointers.ravel()
    while True:
        jumped = pointers[pointers]
        if np.array_equal(jumped, pointers):
            break
        pointers = jumped
    stems = pointers.reshape(rows, width)[:, :num_nets] - base
    masked = stems == sink
    row = np.arange(rows, dtype=np.intp)[:, None]
    stems += row * num_nets + num_contexts
    np.copyto(stems, row % num_contexts, where=masked)
    index = np.int32 if num_contexts + fault_free.size < 2**31 else np.int64
    return stems.astype(index).reshape(fault_free.shape)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class FaultCampaign:
    """Executes fault scenarios against one SCFI-protected netlist.

    ``engine`` selects the evaluation backend: ``"parallel-numpy"`` (the
    default) evaluates word-sliced uint64 lanes with vectorised numpy
    kernels, ``"parallel"`` compiles the netlist once and evaluates batches
    of fault groups per pass on Python bignum lane words, and ``"scalar"``
    evaluates one trace per job on the reference
    :class:`~repro.netlist.simulate.InstrumentedNetlist`.

    The bit-parallel engines pack lanes **across transition contexts** (one
    golden lane per distinct context in a pass, each asserted against the
    analytic fault-free trajectory) so that campaigns over few nets but many
    transitions still fill the lane budget; ``pack_contexts=False`` restores
    the one-context-per-pass batching for comparison benchmarks.

    ``workers=N`` (default 1) shards every run over a
    :class:`~repro.fi.fleet.WorkerFleet` of ``N`` processes: every worker
    builds its own compiled netlist once and replies with per-batch
    classification counts, which the parent merges in job order -- counters
    and outcomes are bit-identical to ``workers=1`` on every engine.  The
    fleet is started on the first sharded run and reused across
    :meth:`run`/:meth:`run_sweep` calls; call :meth:`close` (or use the
    campaign as a context manager) to stop it.

    ``fleet=`` instead shards every run on a fleet the caller owns, whose
    size decides placement (``workers`` is then ignored), and :meth:`close`
    leaves it running.  ``scope`` names the netlist there (its harden-stage
    key), so executors of one scope and parameters share the workers' warm
    twin; with ``None`` the config stays private to this executor.
    """

    ENGINES = tuple(sorted(ENGINE_INFO))

    def __init__(
        self,
        structure: ScfiNetlist,
        engine: str = DEFAULT_ENGINE,
        lane_width: Optional[int] = None,
        keep_outcomes: bool = False,
        pack_contexts: bool = True,
        workers: int = 1,
        fleet: Optional["WorkerFleet"] = None,
        scope: Optional[str] = None,
    ):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r} (choose from {self.ENGINES})")
        if lane_width is None:
            lane_width = ENGINE_INFO[engine].default_lane_width
        if not isinstance(lane_width, int) or isinstance(lane_width, bool) or lane_width < 1:
            raise ValueError(
                f"lane_width must be an integer >= 1, got {lane_width!r} "
                f"(engine {engine!r} accepts any positive lane count; its default "
                f"is {ENGINE_INFO[engine].default_lane_width})"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.structure = structure
        self.hardened = structure.hardened
        self.engine = engine
        self.lane_width = lane_width
        self.keep_outcomes = keep_outcomes
        self.pack_contexts = pack_contexts
        self.workers = workers
        #: Fault-application path of the most recent run ("array-native" on
        #: every engine), None until one ran -- provenance for experiment
        #: results.
        self.last_dispatch: Optional[str] = None
        self.injector = ScfiFaultInjector(structure)
        self._is_numpy = engine == "parallel-numpy"
        self._is_oracle = engine == "scalar"
        self.contexts: List[Tuple[CfgEdge, Dict[str, int]]] = transition_contexts(structure)
        self._code_dtype = np.uint64 if len(structure.state_d) < 64 else object
        # State index ``i`` names state ``_state_names[i]`` (the error state
        # included); index S, past them, stands for every invalid code.
        encoding = self.hardened.state_encoding
        self._state_names: List[Optional[str]] = [*encoding, None]
        self._lookup = _StateLookup.of(np.array(list(encoding.values()), self._code_dtype))
        # One (contexts x S+1) verdict table per trace length, and every
        # context's golden state index (see :meth:`_verdicts`).
        self._verdict_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # Fault-free net values per trace cycle, (cycles, contexts * nets);
        # built on first use (see :meth:`_fault_free`).
        self._fault_free_rows: Optional[np.ndarray] = None
        # Rule (c)'s shared-table slot per cell of that table, built when a
        # run first has one-cycle jobs (see :meth:`_stems`).
        self._stem_rows: Optional[np.ndarray] = None
        self._order = np.arange(0, dtype=np.int32)  # see :meth:`_job_order`
        # Per trace length, the outcomes of the one-cycle faults the running
        # sweep simulated (see :meth:`_collapse`); None outside a sweep.
        self._shared: Optional[Dict[int, _Shared]] = None
        self._compiled = None  # the engine form, built on first use
        self._state_d_ids: Optional[List[int]] = None
        # Per-context encoded inputs / register loads, built on first use.
        self._encoded_inputs: Dict[int, Dict[str, int]] = {}
        self._registers: Dict[int, Dict[str, int]] = {}
        # The (input + register nets) x contexts 0/1 matrix lane words are
        # gathered from, with its input and register net names; built once.
        self._lane_table: Optional[Tuple[np.ndarray, List[str], List[str]]] = None
        # Analytic fault-free trajectories per context: (state, code) at each
        # cycle, extended lazily as longer traces are requested.
        self._trajectories: Dict[int, List[Tuple[str, int]]] = {}
        #: Tables scenarios derive from this netlist while lowering (the
        #: target-net pools, the laser-spot placement and spot members), kept
        #: across runs.
        self.lowering_cache: Dict[object, object] = {}
        #: Worker fleet of sharded runs: borrowed, or owned and started on
        #: the first one when ``workers > 1``.
        self._fleet = fleet
        self._owns_fleet = fleet is None
        #: The key this executor's warm twin has in the fleet's workers.
        self.config_id: Optional[str] = None
        if fleet is not None:
            self.config_id = fleet.ensure_config(structure, self._worker_params(), scope)

    # ------------------------------------------------------------------
    # Worker-fleet lifecycle
    # ------------------------------------------------------------------
    def _worker_params(self) -> Dict[str, object]:
        """The parameters a fleet worker builds this executor's twin with."""
        return {
            "engine": self.engine,
            "lane_width": self.lane_width,
            "keep_outcomes": self.keep_outcomes,
            "pack_contexts": self.pack_contexts,
        }

    def _ensure_fleet(self) -> "WorkerFleet":
        """The fleet of sharded runs; an owned one starts here on first use."""
        if self._fleet is None:
            from repro.fi.fleet import WorkerFleet

            self._fleet = WorkerFleet(self.workers)
            self.config_id = self._fleet.ensure_config(self.structure, self._worker_params())
        return self._fleet

    def close(self) -> None:
        """Stop the owned worker fleet (no-op without one; a borrowed fleet
        keeps running)."""
        if self._owns_fleet and self._fleet is not None:
            self._fleet.close()
            self._fleet = None

    def __enter__(self) -> "FaultCampaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    @property
    def compiled(self):
        """The lazily built engine form of the protected netlist: the
        bit-parallel :class:`CompiledNetlist` (numpy or bignum), or the
        scalar oracle's :class:`InstrumentedNetlist`."""
        if self._compiled is None:
            self._compiled = _ENGINE_FORMS[self.engine](self.structure.netlist)
        return self._compiled

    @property
    def net_index(self) -> Mapping[str, int]:
        """Dense net -> row mapping the :class:`JobArrays` IR is lowered with:
        the engine's ``net_id`` (the compiled engines' fault rows index their
        value planes directly)."""
        return self.compiled.net_id

    def _net_names(self) -> List[str]:
        """Inverse of :attr:`net_index` (``names[row] == net``; rows are dense)."""
        index = self.net_index
        return sorted(index, key=index.__getitem__)

    # ------------------------------------------------------------------
    # Fault-target validation
    # ------------------------------------------------------------------
    def validate_target_nets(self, nets: Iterable[str]) -> None:
        """Raise :class:`ValueError` naming every net the netlist lacks.

        A fault on a nonexistent net would be silently dropped by both
        engines and counted as MASKED -- a typo'd ``--nets`` list would
        report perfect security.
        """
        unknown = sorted(set(nets) - self.net_index.keys())
        if unknown:
            raise ValueError(
                f"fault target nets not in netlist {self.structure.netlist.name!r}: "
                + ", ".join(unknown)
            )

    # ------------------------------------------------------------------
    def run(self, scenario, progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Execute one scenario: lower to the IR, plan, execute, merge.

        ``progress`` receives ``("batch", (done, total))`` after each merged
        batch."""
        result = CampaignResult(
            name=f"{scenario.describe()} ({self.structure.netlist.name})",
            keep_outcomes=self.keep_outcomes,
        )
        scenario.annotate(result, self)
        arrays = self.lower_scenario(scenario)
        if not arrays.num_jobs:
            return result
        touched = np.zeros(len(self.contexts), dtype=bool)
        touched[arrays.contexts] = True
        result.transitions_evaluated = int(np.count_nonzero(touched))
        self._run_ir(arrays, result, progress)
        return result

    def lower_scenario(self, scenario) -> JobArrays:
        """Lower one scenario to the group-aware :class:`JobArrays` IR.

        Every scenario builds its IR in ``jobs_arrays``.  The IR is checked
        against this netlist and its trace: a net row outside the netlist
        (numpy would silently wrap a negative one onto another net) or a
        fault cycle outside the trace raises :class:`ValueError`.
        """
        arrays = scenario.jobs_arrays(self)
        rows, cycles, num_cycles = arrays.net_rows, arrays.cycles, arrays.num_cycles
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= len(self.net_index)):
            raise ValueError(
                f"scenario {scenario.describe()!r} emitted fault net rows outside "
                f"[0, {len(self.net_index)}) of netlist {self.structure.netlist.name!r}"
            )
        if cycles is not None:
            bad = (cycles != EVERY_CYCLE) & ((cycles < 0) | (cycles >= num_cycles))
            if bool(np.any(bad)):
                cycle = int(cycles[np.argmax(bad)])
                raise ValueError(f"fault cycle {cycle} outside the {num_cycles}-cycle trace")
        return arrays

    def run_sweep(
        self, scenarios: Mapping[str, object], progress: Optional[ProgressCallback] = None
    ) -> Dict[str, CampaignResult]:
        """Execute several named scenarios as one sweep.

        The compiled netlist, the lowering tables and the worker fleet are
        shared across the scenarios, and so are the outcomes of one-cycle
        single faults (rule (b) of :meth:`_collapse`): a fault equivalent to
        one an earlier scenario of the sweep simulated takes no lane.  Those
        outcomes are dropped when the sweep ends.  ``progress`` receives
        ``("campaign", name)`` before each scenario runs and, from
        :meth:`run`, ``("batch", (done, total))`` after each merged batch.
        """
        self._shared = {}
        try:
            results = {}
            for name, scenario in scenarios.items():
                if progress is not None:
                    progress("campaign", name)
                results[name] = self.run(scenario, progress)
            return results
        finally:
            self._shared = None

    # ------------------------------------------------------------------
    # Plan phase
    # ------------------------------------------------------------------
    def plan_jobs(self, job_contexts: Sequence[int]) -> CampaignPlan:
        """Cut one job stream (a context index per job) into lane batches.

        The rule is :func:`~repro.fi.planner.plan_batches` under this
        campaign's ``lane_width`` and ``pack_contexts``; it walks runs of
        equal context, so planning costs microseconds and is not cached.
        """
        return plan_batches(job_contexts, self.lane_width, self.pack_contexts)

    # ------------------------------------------------------------------
    # Execute phase
    # ------------------------------------------------------------------
    def _run_ir(
        self, arrays: JobArrays, result: CampaignResult, progress: Optional[ProgressCallback]
    ) -> None:
        """Execute a lowered job stream: one bounded trace per job.

        Every job steps the engine's netlist ``num_cycles`` times with
        register feedback and is classified on its final state against the
        analytic fault-free trajectory of its context; single-cycle
        scenarios are traces of one cycle.  Per-fault cycle annotations
        (transient shots, persistent spots, mixed schedules) select the
        faults live in each cycle.  On the compiled engines the jobs
        :meth:`_collapse` settles take no lane; the rest are planned (plans
        depend only on the job contexts, never on the trace length), each
        batch runs with its IR, in process or on the fleet, and the per-job
        replies expand back to every job in order.
        """
        cycles = arrays.num_cycles
        self.last_dispatch = "array-native"
        collapse = None
        if not self._is_oracle:
            shared = self._shared if self._shared is not None else {}
            collapse = self._collapse(arrays, shared)
        simulated = None if collapse is None else collapse.simulated
        if simulated is None:
            batches = self.plan_jobs(arrays.contexts).batches
            spans: List[object] = [slice(batch.start, batch.stop) for batch in batches]
            units = ((batch, arrays.slice(batch.start, batch.stop)) for batch in batches)
        else:
            batches = self.plan_jobs(arrays.contexts[simulated]).batches
            spans = [simulated[batch.start : batch.stop] for batch in batches]
            units = ((batch, arrays.take(jobs)) for batch, jobs in zip(batches, spans))
        if self.workers > 1 or self._fleet is not None:
            replies = self._sharded_replies(cycles, list(units))
        else:
            replies = (self._unit_reply(cycles, unit) for unit in units)
        classes = np.full(arrays.num_jobs, -1, dtype=np.int8)
        codes = np.empty(arrays.num_jobs, dtype=self._code_dtype) if self.keep_outcomes else None
        for done, (jobs, (batch_classes, batch_codes)) in enumerate(zip(spans, replies), 1):
            classes[jobs] = batch_classes
            if codes is not None:
                if batch_codes is None:
                    raise RuntimeError("worker returned no codes for a keep_outcomes campaign")
                codes[jobs] = batch_codes
            if progress is not None:
                progress("batch", (done, len(batches)))
        if collapse is not None:
            self._expand(collapse, classes, codes)
        self._merge(arrays, classes, codes, result)

    def _sharded_replies(self, cycles: int, units: List[_Unit]) -> Iterator[_BatchReply]:
        """Ship the units to the fleet as :func:`_chunk_bounds` tasks of
        consecutive units; yield their replies in job order."""
        fleet = self._ensure_fleet()
        tasks = [(cycles, units[lo:hi]) for lo, hi in _chunk_bounds(len(units), fleet.size)]
        for replies in fleet.run(self.config_id, tasks):
            yield from replies

    def _task_replies(self, task) -> List[_BatchReply]:
        """Evaluate one fleet task in a worker: ``task`` is ``(cycles,
        units)``, and the reply holds one reply per unit, in order."""
        cycles, units = task
        return [self._unit_reply(cycles, unit) for unit in units]

    def _unit_reply(self, cycles: int, unit: _Unit) -> _BatchReply:
        """Evaluate and classify one unit over ``cycles`` clock edges, in the
        parent or in a fleet worker alike.

        The engine returns the golden contexts' codes, checked against their
        analytic trajectories, then one code per job.  The reply holds every
        job's class index, plus the job codes when outcomes are kept.
        """
        batch, arrays = unit
        evaluate = self._oracle_codes if self._is_oracle else self._compiled_codes
        codes = evaluate(batch, cycles, arrays)
        for lane, index in enumerate(batch.golden_contexts):
            self._check_golden(index, cycles, int(codes[lane]))
        codes = codes[len(batch.golden_contexts) :]
        return self._classes(cycles, arrays.contexts, codes), codes if self.keep_outcomes else None

    def _merge(
        self,
        arrays: JobArrays,
        classes: np.ndarray,
        codes: Optional[np.ndarray],
        result: CampaignResult,
    ) -> None:
        """Fold every job's class into the result, in job order.

        Counters count the class indices.  With ``keep_outcomes`` (``codes``
        given) every job becomes a :class:`FaultOutcome` record of its class
        and code, and the state its code names (``None`` for no codeword).
        """
        if codes is None:
            for index, classification in enumerate(_CLASSIFICATIONS):
                count = int(np.count_nonzero(classes == index))
                if count:
                    result.tally_bulk(classification, count)
            return
        names = self._state_names
        for (index, faults), code, class_index, state in zip(
            arrays.to_jobs(self._net_names()),
            codes.tolist(),
            classes.tolist(),
            self._lookup.index(codes).tolist(),
        ):
            edge, _ = self.contexts[index]
            result.record(
                FaultOutcome.of_faults(
                    faults,
                    source_state=edge.src,
                    expected_state=edge.dst,
                    observed_code=code,
                    observed_state=names[state],
                    classification=_CLASSIFICATIONS[class_index],
                )
            )

    # ------------------------------------------------------------------
    # Fault collapsing
    # ------------------------------------------------------------------
    def _collapse(self, arrays: JobArrays, shared: Dict[int, _Shared]) -> Optional[_Collapse]:
        """Settle the single-fault jobs whose outcome is already known.

        With ``g`` a net's fault-free value in a cycle, a flip forces ``not
        g`` there and a stuck-at-v forces ``v``.  Rule (a): a job whose fault
        forces ``g`` in every cycle it is live changes nothing, so it gets its
        context's analytic golden outcome and no lane.  Every other job live
        in one cycle ``c`` forces ``not g`` there: it is a flip of its net in
        cycle ``c``.  Rule (c) walks that flip to the stem of the net's
        fanout-free region (:func:`_stem_slots`): it is a flip of the stem
        there, or masked, and then gets the golden outcome too.  Rule (b):
        the jobs that land on one (trace length, ``c``, context, stem) slot
        behave alike, so one of them, in the first run of the sweep that
        has the slot, takes a lane and the rest copy its outcome from
        ``shared``.  Multi-fault groups, and single faults live in several
        cycles that rule (a) does not settle, keep their lanes.  Returns
        ``None`` when no job is single-fault.
        """
        offsets = arrays.group_offsets
        num_jobs = arrays.num_jobs
        # CSR offsets never fall, so as many faults as jobs and no empty
        # group means job i is fault i: read views.
        if offsets[-1] == num_jobs and (offsets[1:] != offsets[:-1]).all():
            single, jobs, faults = None, slice(None), slice(None)
        else:
            single = np.flatnonzero(offsets[1:] - offsets[:-1] == 1)
            if not single.size:
                return None
            jobs, faults = single, offsets[single]
        cycles = arrays.num_cycles
        table = self._fault_free(cycles)[:cycles]
        contexts = arrays.contexts[jobs]
        cells = np.multiply(contexts, len(self.net_index), dtype=np.intp)
        cells += arrays.net_rows[faults]
        modes = arrays.modes[faults]
        # Rule (a): a stuck-at-v, whose mode is MODE_STUCK0 + v, on a net
        # that is v in every cycle the fault is live.
        forced = table.take(cells, axis=1)
        forced += MODE_STUCK0
        holds = forced == modes
        shots = None if arrays.cycles is None else arrays.cycles[faults]
        if shots is not None and cycles > 1:
            holds |= (shots != EVERY_CYCLE) & (shots != np.arange(cycles)[:, None])
        masked = holds.all(axis=0)
        # The copies: every one-cycle job, and every masked one.
        copies = single
        if cycles > 1:
            pick = masked if shots is None else (shots != EVERY_CYCLE) | masked
            pick = np.flatnonzero(pick)
            copies = pick if copies is None else copies[pick]
            cells, contexts, masked = cells[pick], contexts[pick], masked[pick]
            if shots is not None:
                cells += np.maximum(shots[pick], 0) * table.shape[1]
        if cycles > 1 and shots is None:  # persistent faults: every copy is masked
            slots = contexts
        else:  # rule (c): the slot of the flip's stem, or the golden one
            slots = cells
            slots[...] = self._stems(cycles).ravel()[cells]
            np.putmask(slots, masked, contexts)
        outcomes = shared.get(cycles)
        if outcomes is None:
            outcomes = shared[cycles] = self._new_shared(cycles)
        # Rule (b): one job of every slot not filled yet, the one whose index
        # the scatter keeps, leads it and alone takes a lane.
        owner = np.full(outcomes.classes.size, -1, dtype=np.int32)
        owner[slots] = self._job_order(slots.size)
        leaders = np.sort(owner[(owner >= 0) & (outcomes.classes < 0)]).astype(np.intp)
        leader_slots = slots[leaders]
        if copies is None:
            simulated = leaders
        else:
            leaders = copies[leaders]
            take = np.ones(num_jobs, dtype=bool)
            take[copies] = False
            take[leaders] = True
            simulated = np.flatnonzero(take)
        return _Collapse(
            simulated=simulated if simulated.size < num_jobs else None,
            copies=copies,
            slots=slots,
            leaders=leaders,
            leader_slots=leader_slots,
            shared=outcomes,
        )

    def _job_order(self, count: int) -> np.ndarray:
        """``np.arange(count)`` (int32), a view of one array kept and grown
        across runs, so a run does not map fresh pages for it."""
        if self._order.size < count:
            self._order = np.arange(count, dtype=np.int32)
        return self._order[:count]

    def _new_shared(self, cycles: int) -> _Shared:
        """An empty sharing table for one trace length: every context's
        golden outcome, then one open slot per (cycle, context, net) cell."""
        table, golden = self._verdicts(cycles)
        contexts = golden.size
        size = contexts + cycles * contexts * len(self.net_index)
        classes = np.full(size, -1, dtype=np.int8)
        classes[:contexts] = table[np.arange(contexts) * len(self._state_names) + golden]
        codes = None
        if self.keep_outcomes:
            codes = np.zeros(size, self._code_dtype)
            codes[:contexts] = self._lookup.codewords[golden]
        return _Shared(classes, codes)

    def _expand(
        self,
        collapse: _Collapse,
        classes: np.ndarray,
        codes: Optional[np.ndarray],
    ) -> None:
        """Give the jobs :meth:`_collapse` settled their class (and code).

        The simulated copies (the leaders) write their outcome into the
        sweep's shared slots; then every copy reads its slot, a context's
        golden slot for every masked job.
        """
        shared = collapse.shared
        copies = slice(None) if collapse.copies is None else collapse.copies
        shared.classes[collapse.leader_slots] = classes[collapse.leaders]
        classes[copies] = shared.classes[collapse.slots]
        if codes is not None:
            shared.codes[collapse.leader_slots] = codes[collapse.leaders]
            codes[copies] = shared.codes[collapse.slots]

    def _stems(self, cycles: int) -> np.ndarray:
        """Rule (c)'s :func:`_stem_slots` table over :meth:`_fault_free`'s
        rows (built on first use, rebuilt with a longer trace's table)."""
        fault_free = self._fault_free(cycles)
        if self._stem_rows is None or self._stem_rows.shape != fault_free.shape:
            self._stem_rows = _stem_slots(self.compiled, fault_free, len(self.contexts))
        return self._stem_rows

    def _fault_free(self, cycles: int) -> np.ndarray:
        """The fault-free value of every net of every context, per cycle.

        Row ``c`` of the ``(cycles, contexts * nets)`` uint8 table holds, at
        column ``k * nets + n``, the value the netlist drives on net ``n``
        (a dense net id) in cycle ``c`` of context ``k``'s fault-free trace.
        One pass per cycle runs every context on its own lane, and each
        pass's state codes are checked against the analytic trajectory.
        Built on first use; a longer trace rebuilds it.
        """
        table = self._fault_free_rows
        if table is None or table.shape[0] < cycles:
            compiled = self.compiled
            num_contexts = len(self.contexts)
            inputs, registers = self._lane_words(
                np.arange(num_contexts, dtype=np.intp), np.empty(0, dtype=np.intp)
            )
            empty = np.empty(0, dtype=np.intp)
            no_faults = [(empty, empty, np.empty(0, dtype=np.uint8))]
            ids = np.arange(compiled.num_nets)
            rows = []
            for cycle in range(cycles):
                values = compiled.step_cycles_fault_arrays(
                    inputs, no_faults, num_contexts, registers=registers
                )
                for index, code in enumerate(values.codes_by_id(self._state_d())):
                    self._check_golden(index, cycle + 1, int(code))
                bits = np.unpackbits(
                    values.byte_rows_by_id(ids), axis=1, count=num_contexts, bitorder="little"
                )
                rows.append(bits.T.ravel())
                registers = compiled.register_feedback(values)
            table = self._fault_free_rows = np.stack(rows)
        return table
    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def _compiled_codes(
        self, batch: PlannedBatch, cycles: int, arrays: JobArrays
    ) -> Sequence[int]:
        """Golden-lane then job-lane codes of one bit-parallel pass.

        Fault *groups* become grouped lanes -- every fault of job ``i``
        lands on lane ``num_golden + i``, so a multi-net laser-spot group
        occupies a single fault lane -- and the per-fault cycle annotations
        select which faults are live in each cycle of the trace.  Codes come
        back as one uint64 array, or as Python ints for state codes of 64
        bits or more.
        """
        num_golden = len(batch.golden_contexts)
        num_jobs = arrays.num_jobs
        num_lanes = num_golden + num_jobs
        lanes = num_golden + np.repeat(
            np.arange(num_jobs, dtype=np.intp), arrays.group_sizes()
        )
        if arrays.cycles is None:
            # Every fault persistent: one triple serves every cycle.
            cycle_faults = [(arrays.net_rows, lanes, arrays.modes)] * cycles
        else:
            cycle_faults = []
            for cycle in range(cycles):
                live = (arrays.cycles == EVERY_CYCLE) | (arrays.cycles == cycle)
                cycle_faults.append(
                    (arrays.net_rows[live], lanes[live], arrays.modes[live])
                )
        inputs, registers = self._lane_words(batch.golden_contexts, arrays.contexts)
        values = self.compiled.step_cycles_fault_arrays(
            inputs, cycle_faults, num_lanes, registers=registers
        )
        return values.codes_by_id(self._state_d())

    def _oracle_codes(self, batch: PlannedBatch, cycles: int, arrays: JobArrays) -> List[int]:
        """Golden-context then job codes of one batch, one oracle trace each.

        The oracle walks the batch's own IR slice: it selects each cycle's
        live faults itself and hands them to the instrumented netlist in
        group order (the order that makes the last stuck-at win), with no
        lane words and no fault scatter.
        """
        oracle = self.compiled
        offsets = arrays.group_offsets.tolist()
        faults = list(zip(arrays.net_rows.tolist(), arrays.modes.tolist()))
        shots = [EVERY_CYCLE] * len(faults) if arrays.cycles is None else arrays.cycles.tolist()
        groups = [range(0)] * len(batch.golden_contexts) + list(map(range, offsets, offsets[1:]))
        codes: List[int] = []
        for index, group in zip(list(batch.golden_contexts) + arrays.contexts.tolist(), groups):
            cycle_faults = [
                [faults[k] for k in group if shots[k] in (EVERY_CYCLE, cycle)]
                for cycle in range(cycles)
            ]
            encoded, registers = self._context_vectors(index)
            values = oracle.trace(encoded, cycle_faults, registers=registers)
            codes.append(oracle.read_word(values, self.structure.state_d))
        return codes

    def _classes(
        self, cycles: int, job_contexts: "np.ndarray", codes: Sequence[int]
    ) -> np.ndarray:
        """The class index of every job of one batch: one gather from the
        trace length's verdict table (:meth:`_verdicts`) at each job's
        context row and its code's state column."""
        table, _ = self._verdicts(cycles)
        keys = np.multiply(job_contexts, len(self._state_names), dtype=np.intp)
        keys += self._lookup.index(codes)
        return table[keys]

    def _verdicts(self, cycles: int) -> Tuple[np.ndarray, np.ndarray]:
        """The verdict table of one trace length and every context's golden
        state index (built once per trace length).

        Row ``k`` of the flat ``(contexts, S+1)`` table holds the class index
        of every final state of context ``k``'s trace, with
        :func:`~repro.fi.model.classify_observation`'s precedence: MASKED at
        the analytic trajectory's final state, DETECTED at the error state
        and at column S (any invalid code), REDIRECTED at the CFG successors
        of the state one cycle earlier, HIJACK everywhere else.
        """
        verdicts = self._verdict_tables.get(cycles)
        if verdicts is None:
            states = {name: i for i, name in enumerate(self._state_names[:-1])}
            columns = len(self._state_names)
            successors = np.zeros((columns - 1, columns), dtype=bool)
            for state, targets in cfg_successor_map(self.hardened.fsm).items():
                successors[states[state], [states[target] for target in targets]] = True
            trajectories = [self._trajectory(index, cycles) for index in range(len(self.contexts))]
            golden = np.array([states[t[cycles][0]] for t in trajectories], dtype=np.intp)
            previous = np.array([states[t[cycles - 1][0]] for t in trajectories], dtype=np.intp)
            verdict = _CLASSIFICATIONS.index
            table = np.where(
                successors[previous],
                verdict(Classification.REDIRECTED),
                verdict(Classification.HIJACK),
            ).astype(np.int8)
            table[:, [states[self.hardened.error_state], -1]] = verdict(Classification.DETECTED)
            table[np.arange(golden.size), golden] = verdict(Classification.MASKED)
            verdicts = self._verdict_tables[cycles] = (table.ravel(), golden)
        return verdicts

    # ------------------------------------------------------------------
    # Contexts and golden trajectories
    # ------------------------------------------------------------------
    def _context_vectors(self, index: int) -> Tuple[Dict[str, int], Dict[str, int]]:
        encoded = self._encoded_inputs.get(index)
        if encoded is None:
            edge, inputs = self.contexts[index]
            encoded = self.structure.encode_inputs(dict(inputs))
            state_code = self.hardened.state_encoding[edge.src]
            self._encoded_inputs[index] = encoded
            self._registers[index] = {
                net: (state_code >> i) & 1 for i, net in enumerate(self.structure.state_q)
            }
        return encoded, self._registers[index]

    def _lane_words(
        self, golden_contexts: Sequence[int], job_contexts: "np.ndarray"
    ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Input and register lane words of one multi-context pass.

        Lane ``k`` carries the transition context of its golden or fault
        lane: one gather of the lanes' context columns from the per-context
        bit matrix and one little-endian ``packbits`` yield every net's word
        at once -- uint64 rows on the numpy engine, ints on the bignum one.
        Job lanes come in runs of equal context, so the gather repeats one
        column per run instead of indexing every lane.
        """
        table, input_nets, register_nets = self._context_bits()
        lanes = np.concatenate((np.asarray(golden_contexts, dtype=np.intp), job_contexts))
        starts = np.flatnonzero(np.diff(lanes, prepend=-1))
        bits = np.repeat(table[:, lanes[starts]], np.diff(starts, append=lanes.size), axis=1)
        packed = np.packbits(bits, axis=1, bitorder="little")
        if self._is_numpy:
            rows = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), np.uint8)
            rows[:, : packed.shape[1]] = packed
            words: List[object] = list(rows.view(WORD_DTYPE))
        else:
            stride = packed.shape[1]
            data = packed.tobytes()
            words = [
                int.from_bytes(data[i : i + stride], "little")
                for i in range(0, len(data), stride)
            ]
        split = len(input_nets)
        return dict(zip(input_nets, words[:split])), dict(zip(register_nets, words[split:]))

    def _context_bits(self) -> Tuple[np.ndarray, List[str], List[str]]:
        """The ``(input + register nets) x contexts`` 0/1 matrix (built once).

        Rows follow the compiled netlist's input nets, then its register
        nets; column ``c`` holds the values transition context ``c`` drives.
        """
        if self._lane_table is None:
            compiled = self.compiled
            input_nets = [net for net, _ in compiled.input_ids]
            register_nets = [net for net, _ in compiled.register_ids]
            bits = np.zeros((len(input_nets) + len(register_nets), len(self.contexts)), np.uint8)
            for index in range(len(self.contexts)):
                encoded, registers = self._context_vectors(index)
                bits[:, index] = [bool(encoded.get(net)) for net in input_nets] + [
                    bool(registers.get(net)) for net in register_nets
                ]
            self._lane_table = (bits, input_nets, register_nets)
        return self._lane_table

    def _state_d(self) -> List[int]:
        """Dense net ids of the state-register D nets (resolved once)."""
        if self._state_d_ids is None:
            net_id = self.compiled.net_id
            self._state_d_ids = [net_id[net] for net in self.structure.state_d]
        return self._state_d_ids

    def _trajectory(self, index: int, cycles: int) -> List[Tuple[str, int]]:
        """The analytic fault-free trajectory of one context, ``cycles`` deep.

        Entry ``t`` is the (state, encoded code) the golden lane holds after
        ``t`` clock edges with the context's activating inputs held constant;
        entry 1 is the context edge's destination by construction, and later
        entries follow :meth:`HardenedFsm.next_state` (stay edges / guard
        priority included), which the netlist implements gate for gate.
        """
        trajectory = self._trajectories.get(index)
        if trajectory is None:
            edge, _ = self.contexts[index]
            encoding = self.hardened.state_encoding
            trajectory = [(edge.src, encoding[edge.src]), (edge.dst, encoding[edge.dst])]
            self._trajectories[index] = trajectory
        if len(trajectory) <= cycles:
            _, inputs = self.contexts[index]
            while len(trajectory) <= cycles:
                step = self.hardened.next_state(trajectory[-1][0], inputs)
                trajectory.append((step.next_state, step.next_code))
        return trajectory

    def _check_golden(self, index: int, cycles: int, observed: int) -> None:
        """Assert one golden lane against the analytic trajectory code."""
        golden = self._trajectory(index, cycles)[cycles][1]
        if observed != golden:
            edge, _ = self.contexts[index]
            raise RuntimeError(
                f"golden lane diverged after {cycles} cycle(s) on edge "
                f"{edge.src}->{edge.dst}: expected {golden:#x}, simulated {observed:#x}"
            )
