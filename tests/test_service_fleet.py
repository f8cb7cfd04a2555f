"""The persistent worker fleet: equality, warm netlists, fault handling.

Three load-bearing properties:

* **Invisibility** -- a campaign dispatched through the fleet
  (``FaultCampaign(fleet=...)``) produces counters bit-identical to the plain
  in-process executor, on every engine, because both sides run the same
  planner, task format and worker functions.
* **Warmth** -- the netlist for a given scope and parameters is shipped to
  each worker exactly once; a second campaign against the same hardened
  netlist ships nothing, and an unscoped one never shares a config.
* **Fault handling** -- a worker SIGKILLed mid-batch is detected, its shards
  are re-dispatched to healthy workers (with a respawned replacement), and the
  final counters are still bit-identical; ``close()`` leaves no surviving
  process, extending the executor's no-surviving-pool guarantee.
"""

import multiprocessing
import os
import signal

import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import FaultCampaign
from repro.fi.fleet import FleetError, ServiceShutdown, WorkerFleet
from repro.fi.model import FaultEffect
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fsm.random_fsm import random_fsm

ALL_EFFECTS = (FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)

SCOPE = "ab" * 32  # a stand-in harden-stage hash


def _protect(fsm):
    return protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False)).structure


@pytest.fixture(scope="module")
def structure():
    return _protect(random_fsm(7, num_states=5))


@pytest.fixture(scope="module")
def oracle(structure):
    """Single-process reference counters for the module's standard scenario."""
    scenario = ExhaustiveSingleFault(target_nets="comb", effects=ALL_EFFECTS)
    return FaultCampaign(structure, engine="parallel").run(scenario).counters()


def _scenario():
    return ExhaustiveSingleFault(target_nets="comb", effects=ALL_EFFECTS)


def _on(fleet, structure, **kwargs):
    """An executor borrowing ``fleet`` for the stand-in scope."""
    return FaultCampaign(structure, fleet=fleet, scope=SCOPE, **kwargs)


def _on_batch(callback):
    """A progress callback handing each ``("batch", (done, total))`` event
    to ``callback(done, total)``."""
    return lambda stage, detail: callback(*detail) if stage == "batch" else None


class TestFleetEqualsInProcess:
    @pytest.mark.parametrize("engine", ("parallel", "parallel-numpy"))
    def test_counters_bit_identical(self, structure, engine):
        single = FaultCampaign(structure, engine=engine).run(_scenario()).counters()
        with WorkerFleet(2) as fleet:
            campaign = _on(fleet, structure, engine=engine)
            assert campaign.run(_scenario()).counters() == single

    def test_scalar_engine_shards_through_the_fleet(self, structure):
        scenario = ExhaustiveSingleFault(target_nets="diffusion", effects=ALL_EFFECTS)
        single = FaultCampaign(structure, engine="scalar").run(scenario).counters()
        with WorkerFleet(2) as fleet:
            campaign = _on(fleet, structure, engine="scalar")
            assert campaign.run(scenario).counters() == single

    def test_progress_streams_scenario_then_batches_in_order(self, structure):
        events = []
        with WorkerFleet(2) as fleet:
            campaign = _on(fleet, structure, lane_width=8)  # several batches
            campaign.run_sweep({"comb": _scenario()}, lambda *event: events.append(event))
        assert events[0] == ("campaign", "comb")
        batches = events[1:]
        assert len(batches) > 1 and {stage for stage, _ in batches} == {"batch"}
        total = batches[0][1][1]
        assert [detail for _, detail in batches] == [(done, total) for done in range(1, total + 1)]


class TestWarmNetlists:
    def test_config_shipped_once_per_worker(self, structure, oracle):
        with WorkerFleet(2) as fleet:
            first = _on(fleet, structure)
            assert first.run(_scenario()).counters() == oracle
            shipped_after_first = fleet.stats()["configs_shipped"]
            assert shipped_after_first == 2  # once per worker
            # Same hardened netlist again: nothing is re-shipped.
            second = _on(fleet, structure)
            assert second.config_id == first.config_id
            assert second.run(_scenario()).counters() == oracle
            assert fleet.stats()["configs_shipped"] == shipped_after_first

    def test_different_scope_ships_again(self, structure):
        with WorkerFleet(2) as fleet:
            first = _on(fleet, structure)
            other = FaultCampaign(structure, fleet=fleet, scope="cd" * 32)
            assert other.config_id != first.config_id
            assert fleet.stats()["configs_shipped"] == 4

    def test_unscoped_config_stays_private(self, structure, oracle):
        with WorkerFleet(2) as fleet:
            first = FaultCampaign(structure, fleet=fleet)
            second = FaultCampaign(structure, fleet=fleet)
            assert first.config_id != second.config_id
            assert fleet.stats()["configs_shipped"] == 4
            assert second.run(_scenario()).counters() == oracle

    def test_close_leaves_a_borrowed_fleet_running(self, structure, oracle):
        """Session wraps executors in ``with``; closing one on a borrowed
        fleet must leave the fleet fully usable for the next job."""
        with WorkerFleet(2) as fleet:
            with _on(fleet, structure) as campaign:
                campaign.run(_scenario())
            assert fleet.alive_count() == 2
            again = _on(fleet, structure)
            assert again.run(_scenario()).counters() == oracle

    def test_close_stops_an_owned_fleet(self, structure, oracle):
        with FaultCampaign(structure, workers=2) as campaign:
            assert campaign.run(_scenario()).counters() == oracle
            owned = campaign._fleet
            assert owned.alive_count() == 2
        assert campaign._fleet is None and owned.alive_count() == 0
        with pytest.raises(FleetError, match="closed"):
            owned.ensure_config(structure, {})


class TestSenderSidePickling:
    def test_queues_carry_only_bytes(self, structure, oracle):
        """Every message and reply payload is pickled by the thread that sends
        it, so a queue's feeder thread never pickles a live object."""
        sent, received = [], []
        with WorkerFleet(2) as fleet:
            for handle in fleet.live_handles():
                put = handle.task_queue.put
                handle.task_queue.put = lambda message, put=put: put(sent.append(message) or message)
            get = fleet._result_queue.get
            fleet._result_queue.get = lambda *args, **kw: received.append(get(*args, **kw)) or received[-1]
            assert _on(fleet, structure).run(_scenario()).counters() == oracle
        assert sent and all(isinstance(message, bytes) for message in sent)
        replies = [message[3] for message in received if message[0] == "result"]
        assert replies and all(isinstance(reply, bytes) for reply in replies)


class TestFaultHandling:
    def test_sigkilled_worker_mid_batch_is_retried(self, structure, oracle):
        """Kill a worker that holds undelivered tasks; the lost shards are
        re-dispatched and the counters still match the in-process run.

        The victim is stopped before the run, so no task the fleet hands it
        can come back.  The fleet dispatches every task of a run round-robin
        before it reads a reply, and the first task goes to the other
        worker, so when the first batch lands the victim provably holds
        undelivered tasks; that is when it is killed.
        """
        with WorkerFleet(2) as fleet:
            victim = fleet.live_handles()[-1].process
            os.kill(victim.pid, signal.SIGSTOP)
            killed = []

            def kill_victim(done, total):
                if not killed:
                    assert fleet.stats()["tasks_dispatched"] >= 2
                    os.kill(victim.pid, signal.SIGKILL)
                    killed.append(victim.pid)

            # Narrow lanes make many batches: both workers get tasks.
            campaign = _on(fleet, structure, lane_width=8)
            assert campaign.run(_scenario(), _on_batch(kill_victim)).counters() == oracle
            stats = fleet.stats()
            assert killed and stats["workers_lost"] >= 1
            assert stats["workers_respawned"] >= 1
            assert fleet.alive_count() == 2

    def test_worker_dead_before_dispatch_is_excluded(self, structure, oracle):
        """A worker that died between jobs never receives a shard; the run
        completes on the survivors alone, counters unchanged."""
        with WorkerFleet(2) as fleet:
            campaign = _on(fleet, structure, lane_width=8)
            victim = fleet.live_handles()[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            assert fleet.alive_count() == 1
            assert campaign.run(_scenario()).counters() == oracle

    def test_fleet_cancel_aborts_with_service_shutdown(self, structure):
        with WorkerFleet(2) as fleet:
            campaign = _on(fleet, structure, lane_width=8)
            cancel = _on_batch(lambda done, total: fleet.cancel())
            with pytest.raises(ServiceShutdown):
                campaign.run(_scenario(), cancel)
            # A cancelled fleet stays cancelled: the drain refuses new work.
            with pytest.raises(ServiceShutdown):
                campaign.run(_scenario())
        assert multiprocessing.active_children() == []

    def test_closed_fleet_refuses_work(self, structure):
        fleet = WorkerFleet(1)
        fleet.close()
        with pytest.raises(FleetError, match="closed"):
            _on(fleet, structure)


class TestDeterministicClose:
    def test_no_surviving_processes(self, structure):
        fleet = WorkerFleet(2)
        _on(fleet, structure).run(_scenario())
        fleet.close()
        assert fleet.alive_count() == 0
        assert multiprocessing.active_children() == []

    def test_workers_leave_on_stop_after_a_cancelled_run(self, structure):
        """A cancelled run stops reading replies; close() must still let every
        worker exit through its stop message instead of terminating it."""
        terminated, exit_codes = [], []

        def watch(process):
            terminate, close = process.terminate, process.close

            def recording_terminate():
                terminated.append(process.name)
                terminate()

            def recording_close():
                exit_codes.append(process.exitcode)
                close()

            process.terminate = recording_terminate
            process.close = recording_close

        fleet = WorkerFleet(2)
        for handle in fleet.live_handles():
            watch(handle.process)
        # Kept outcomes put every observed code in the replies: far more
        # bytes than a pipe buffers once the cancelled run stops reading them.
        campaign = _on(fleet, structure, lane_width=8, keep_outcomes=True)
        with pytest.raises(ServiceShutdown):
            campaign.run(_scenario(), _on_batch(lambda done, total: fleet.cancel()))
        fleet.close()
        assert terminated == []
        assert exit_codes == [0, 0]
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self):
        fleet = WorkerFleet(1)
        fleet.close()
        fleet.close()
        assert multiprocessing.active_children() == []
