"""The worker fleet: the one process pool every sharded campaign runs on.

A :class:`WorkerFleet` is a fixed number of worker processes (``fork`` start
method where available) plus the dispatch machinery that feeds them.  Each
worker holds warm :class:`~repro.fi.executor.FaultCampaign` executors keyed
by a **config id**: the first task for a config ships the
:class:`~repro.core.structure.ScfiNetlist` and execution parameters once over
the worker's queue, the worker compiles it, and every later task with that
config id reuses the compiled netlist.

Two lifetimes use the same fleet.  ``FaultCampaign(workers=N)`` starts an
owned fleet of ``N`` workers on its first sharded run and stops it in
``close()``; the campaign service keeps one long-lived fleet that its
:class:`~repro.service.worker.FleetCampaign` executors share.  Either way the
executor hands :meth:`WorkerFleet.run` a list of tasks and merges the replies
in task order; a worker evaluates a task with
:meth:`FaultCampaign._task_replies <repro.fi.executor.FaultCampaign._task_replies>`,
so sharded counters are bit-identical to in-process runs by construction.

Fault handling: task replies carry ids, the fleet tracks which worker owns
which outstanding task, and a worker that dies mid-task (crash, OOM kill,
SIGKILL) is detected by liveness polling.  Its outstanding tasks are
re-dispatched to healthy workers (a replacement is respawned with the config
cache replayed) and late duplicate replies are dropped by id.  Tasks and
replies are plain pickles on the worker queues, and :meth:`WorkerFleet.close`
leaves no surviving process.

Each message (a reply's payload, on the way back) is pickled by the thread
that sends it, before it is queued, so a queue's feeder thread only writes
bytes.  Left to the feeder, the pickling ran concurrently with the sender's
own work, and on CPython 3.11 the parent then segfaulted in a later
garbage-collection pass: in every run of the test files up to
``test_fi_sharded.py`` under a 10 µs GIL switch interval and a collection
after each test, and now and then without either.  The ``config`` message,
which carries the netlist the parent keeps using, was the one that mattered.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.structure import ScfiNetlist
from repro.fi.executor import FaultCampaign

#: How long the collector waits on the result queue before polling liveness.
_PUMP_TIMEOUT = 0.2

#: Give up on a task after this many re-dispatches to fresh workers.
_MAX_TASK_RETRIES = 3


class FleetError(RuntimeError):
    """The fleet cannot make progress (no healthy workers / retries exhausted)."""


class FleetTaskError(RuntimeError):
    """A worker raised while evaluating a task (deterministic failure)."""


class ServiceShutdown(RuntimeError):
    """Execution was cancelled by a service shutdown drain."""


def _fleet_worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker-process loop: configure warm executors, evaluate tasks.

    The per-worker task queue is FIFO, so a ``config`` message enqueued
    before a ``task`` is always applied first -- the dispatcher never waits
    for a configuration to land before sending work.
    """
    campaigns: Dict[str, FaultCampaign] = {}
    while True:
        message = pickle.loads(task_queue.get())
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "config":
                _, config_id, structure, params = message
                if config_id not in campaigns:
                    campaign = FaultCampaign(structure, **params)
                    campaign.compiled  # compile up front
                    campaigns[config_id] = campaign
            elif kind == "task":
                _, task_id, config_id, payload = message
                reply = campaigns[config_id]._task_replies(payload)
                result_queue.put(("result", worker_id, task_id, pickle.dumps(reply)))
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown fleet message kind {kind!r}")
        except Exception as error:  # noqa: BLE001 - forwarded to the dispatcher
            task_id = message[1] if kind == "task" else None
            result_queue.put(
                ("error", worker_id, task_id, f"{type(error).__name__}: {error}")
            )


class _WorkerHandle:
    """Parent-side view of one fleet worker process."""

    def __init__(self, worker_id: int, process, task_queue) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        #: Config ids already shipped to this worker (send-once bookkeeping).
        self.configs: Set[str] = set()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerFleet:
    """A fixed-size fleet of persistent workers plus its dispatch machinery.

    Single-consumer by design: one thread dispatches and collects (the lock
    only protects the stats and lifecycle against concurrent health/shutdown
    queries from other threads).
    """

    def __init__(self, size: int = 2, *, respawn: bool = True) -> None:
        if size < 1:
            raise ValueError("fleet size must be >= 1")
        self.size = size
        self.respawn = respawn
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._result_queue = self._context.Queue()
        self._lock = threading.RLock()
        self._handles: List[_WorkerHandle] = []
        self._next_worker_id = 0
        self._next_task_id = 0
        self._closed = False
        #: config_id -> (structure, params): replayed onto respawned workers.
        self._config_cache: Dict[str, Tuple[ScfiNetlist, Dict[str, Any]]] = {}
        self._stats = {
            "tasks_dispatched": 0,
            "tasks_completed": 0,
            "tasks_retried": 0,
            "workers_lost": 0,
            "workers_respawned": 0,
            "configs_shipped": 0,
        }
        for _ in range(size):
            self._spawn_locked()

    # -- lifecycle -------------------------------------------------------

    def _spawn_locked(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_fleet_worker_main,
            args=(worker_id, task_queue, self._result_queue),
            name=f"scfi-fleet-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(worker_id, process, task_queue)
        self._handles.append(handle)
        return handle

    def _respawn_locked(self) -> Optional[_WorkerHandle]:
        if not self.respawn or self._closed:
            return None
        handle = self._spawn_locked()
        self._stats["workers_respawned"] += 1
        # A replacement starts cold: replay every cached config so any
        # redispatched task finds its executor (FIFO makes this safe).
        for config_id, (structure, params) in self._config_cache.items():
            message = pickle.dumps(("config", config_id, structure, params))
            self._ship_config_locked(handle, config_id, message)
        return handle

    def live_handles(self) -> List[_WorkerHandle]:
        with self._lock:
            return [handle for handle in self._handles if handle.alive]

    def alive_count(self) -> int:
        return len(self.live_handles())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = dict(self._stats)
        stats["workers_alive"] = self.alive_count()
        stats["workers_total"] = self.size
        return stats

    def close(self, timeout: float = 5.0) -> None:
        """Deterministically stop every worker: stop message, join, escalate.

        After close() returns no fleet process survives.  Replies are
        discarded while the workers wind down: a cancelled run leaves results
        unread, and a worker cannot exit while its queue feeder is blocked
        flushing them into a full pipe.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            if handle.alive:
                try:
                    handle.task_queue.put(pickle.dumps(("stop",)))
                except (OSError, ValueError):  # queue already broken
                    pass
        joined = threading.Event()
        drainer = threading.Thread(
            target=self._discard_results,
            args=(joined,),
            name="scfi-fleet-drain",
            daemon=True,
        )
        drainer.start()
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(1.0)
            handle.process.close()
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
        joined.set()
        # Bounded: a worker killed mid-write can leave a partial reply the
        # drainer would wait on forever; it is a daemon, so abandon it.
        drainer.join(timeout)
        self._result_queue.close()
        self._result_queue.cancel_join_thread()
        with self._lock:
            self._handles = []

    def _discard_results(self, joined: threading.Event) -> None:
        """Read and drop replies until every worker has been joined."""
        while not joined.is_set():
            try:
                self._result_queue.get(timeout=0.05)
            except queue_module.Empty:
                continue
            except (OSError, EOFError, ValueError):  # pragma: no cover - queue broken
                return

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- configuration ---------------------------------------------------

    def _ship_config_locked(self, handle: _WorkerHandle, config_id: str, message: bytes) -> None:
        handle.task_queue.put(message)
        handle.configs.add(config_id)
        self._stats["configs_shipped"] += 1

    def ensure_config(
        self, config_id: str, structure: ScfiNetlist, params: Dict[str, Any]
    ) -> None:
        """Ship ``(structure, params)`` to every live worker lacking it.

        Idempotent per worker: a config id a worker already received is never
        re-shipped, which is exactly the warm-netlist reuse -- the second job
        against the same hardened netlist sends no netlist at all.
        """
        with self._lock:
            if self._closed:
                raise FleetError("worker fleet is closed")
            self._config_cache.setdefault(config_id, (structure, dict(params)))
            message = None
            for handle in self._handles:
                if handle.alive and config_id not in handle.configs:
                    if message is None:  # pickled once for every worker
                        message = pickle.dumps(("config", config_id, structure, params))
                    self._ship_config_locked(handle, config_id, message)

    # -- dispatch/collection ---------------------------------------------

    def run(
        self,
        config_id: str,
        tasks: List[Any],
        cancel: Optional[threading.Event] = None,
    ) -> Iterator[Any]:
        """Dispatch ``tasks`` round-robin; yield replies in task order.

        The heart of the fault handling: ``outstanding`` maps live task ids
        to ``(index, worker, attempts)``; on a result-queue timeout every
        outstanding task whose worker died is re-dispatched to a healthy
        worker (respawning one when the policy allows), and late duplicate
        replies -- a worker that died *after* answering -- are dropped by id.
        A set ``cancel`` event raises :class:`ServiceShutdown` between replies.
        """
        total = len(tasks)
        if total == 0:
            return
        with self._lock:
            if self._closed:
                raise FleetError("worker fleet is closed")
            task_ids = list(range(self._next_task_id, self._next_task_id + total))
            self._next_task_id += total
        outstanding: Dict[int, Tuple[int, _WorkerHandle, int]] = {}
        results: Dict[int, Any] = {}
        index_of = {task_id: index for index, task_id in enumerate(task_ids)}

        def dispatch(task_id: int, handle: _WorkerHandle, attempts: int) -> None:
            message = ("task", task_id, config_id, tasks[index_of[task_id]])
            handle.task_queue.put(pickle.dumps(message))
            outstanding[task_id] = (index_of[task_id], handle, attempts)
            with self._lock:
                self._stats["tasks_dispatched"] += 1

        workers = self.live_handles()
        if not workers:
            with self._lock:
                replacement = self._respawn_locked()
            if replacement is None:
                raise FleetError("no live fleet workers")
            workers = [replacement]
        for position, task_id in enumerate(task_ids):
            dispatch(task_id, workers[position % len(workers)], 0)

        next_yield = 0
        while next_yield < total:
            if cancel is not None and cancel.is_set():
                raise ServiceShutdown("fleet execution cancelled by shutdown")
            try:
                message = self._result_queue.get(timeout=_PUMP_TIMEOUT)
            except queue_module.Empty:
                self._recover_lost(outstanding, dispatch)
                continue
            if message[0] == "error":
                _, _, task_id, detail = message
                if task_id is not None and task_id in outstanding:
                    raise FleetTaskError(detail)
                continue  # stale config failure / task of a cancelled run
            _, _, task_id, reply = message
            entry = outstanding.pop(task_id, None)
            if entry is None:
                continue  # duplicate after a retry, or a cancelled run's task
            results[entry[0]] = pickle.loads(reply)
            with self._lock:
                self._stats["tasks_completed"] += 1
            while next_yield in results:
                yield results.pop(next_yield)
                next_yield += 1

    def _recover_lost(
        self,
        outstanding: Dict[int, Tuple[int, _WorkerHandle, int]],
        dispatch: Callable[[int, "_WorkerHandle", int], None],
    ) -> None:
        """Re-dispatch every outstanding task whose worker died."""
        lost = [
            (task_id, attempts)
            for task_id, (_, handle, attempts) in outstanding.items()
            if not handle.alive
        ]
        if not lost:
            return
        with self._lock:
            dead = [h for h in self._handles if not h.alive]
            for handle in dead:
                self._handles.remove(handle)
                self._stats["workers_lost"] += 1
                # Reap the dead worker's plumbing now: without
                # cancel_join_thread the abandoned queue's feeder thread --
                # possibly blocked mid-write into a pipe nobody will ever
                # drain again -- would deadlock interpreter shutdown.
                handle.process.join(1.0)
                handle.task_queue.cancel_join_thread()
                handle.task_queue.close()
                try:
                    handle.process.close()
                except ValueError:  # pragma: no cover - still closing
                    pass
            while len(self._handles) < self.size:
                if self._respawn_locked() is None:
                    break
        workers = self.live_handles()
        if not workers:
            raise FleetError("every fleet worker died; cannot re-dispatch")
        for position, (task_id, attempts) in enumerate(lost):
            if attempts + 1 > _MAX_TASK_RETRIES:
                raise FleetError(
                    f"fleet task retried {attempts} times without a surviving worker"
                )
            with self._lock:
                self._stats["tasks_retried"] += 1
            dispatch(task_id, workers[position % len(workers)], attempts + 1)
