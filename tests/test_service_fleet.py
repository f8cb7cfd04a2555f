"""The persistent worker fleet: equality, warm netlists, fault handling.

Three load-bearing properties:

* **Invisibility** -- a campaign dispatched through the fleet produces
  counters bit-identical to the plain in-process executor, on every engine,
  because both sides run the same planner, task format and worker functions.
* **Warmth** -- the netlist for a given config id is shipped to each worker
  exactly once; a second campaign against the same hardened netlist ships
  nothing.
* **Fault handling** -- a worker SIGKILLed mid-batch is detected, its shards
  are re-dispatched to healthy workers (with a respawned replacement), and the
  final counters are still bit-identical; ``close()`` leaves no surviving
  process, extending the executor's no-surviving-pool guarantee.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import FaultCampaign
from repro.fi.fleet import FleetError, ServiceShutdown, WorkerFleet
from repro.fi.model import FaultEffect
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fsm.random_fsm import random_fsm
from repro.service.worker import FleetCampaign, fleet_config_id

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


class TestFleetEqualsInProcess:
    @pytest.mark.parametrize("engine", ("parallel", "parallel-numpy"))
    def test_counters_bit_identical(self, structure, engine):
        single = FaultCampaign(structure, engine=engine).run(_scenario()).counters()
        with WorkerFleet(2) as fleet:
            campaign = FleetCampaign(fleet, SCOPE, structure, engine=engine)
            assert campaign.run(_scenario()).counters() == single

    def test_scalar_engine_shards_through_the_fleet(self, structure):
        scenario = ExhaustiveSingleFault(target_nets="diffusion", effects=ALL_EFFECTS)
        single = FaultCampaign(structure, engine="scalar").run(scenario).counters()
        with WorkerFleet(2) as fleet:
            campaign = FleetCampaign(fleet, SCOPE, structure, engine="scalar")
            assert campaign.run(scenario).counters() == single

    def test_batch_progress_streams(self, structure):
        seen = []
        with WorkerFleet(2) as fleet:
            campaign = FleetCampaign(
                fleet,
                SCOPE,
                structure,
                lane_width=8,  # narrow lanes force several batches
                batch_progress=lambda done, total: seen.append((done, total)),
            )
            campaign.run(_scenario())
        assert seen, "no batch progress streamed"
        done_values = [done for done, _ in seen]
        assert done_values == sorted(done_values)
        assert seen[-1][0] == seen[-1][1]  # finishes complete


class TestWarmNetlists:
    def test_config_shipped_once_per_worker(self, structure, oracle):
        with WorkerFleet(2) as fleet:
            first = FleetCampaign(fleet, SCOPE, structure)
            assert first.run(_scenario()).counters() == oracle
            shipped_after_first = fleet.stats()["configs_shipped"]
            assert shipped_after_first == 2  # once per worker
            # Same hardened netlist again: nothing is re-shipped.
            second = FleetCampaign(fleet, SCOPE, structure)
            assert second.run(_scenario()).counters() == oracle
            assert fleet.stats()["configs_shipped"] == shipped_after_first

    def test_different_scope_is_a_different_config(self, structure):
        params = dict(engine="parallel", lane_width=None, keep_outcomes=False, pack_contexts=True)
        assert fleet_config_id(SCOPE, **params) != fleet_config_id("cd" * 32, **params)

    def test_close_is_the_campaigns_detach_not_teardown(self, structure, oracle):
        """Session wraps executors in ``with``; closing a FleetCampaign must
        leave the fleet fully usable for the next job."""
        with WorkerFleet(2) as fleet:
            with FleetCampaign(fleet, SCOPE, structure) as campaign:
                campaign.run(_scenario())
            assert fleet.alive_count() == 2
            again = FleetCampaign(fleet, SCOPE, structure)
            assert again.run(_scenario()).counters() == oracle


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
            assert FleetCampaign(fleet, SCOPE, structure).run(_scenario()).counters() == oracle
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

            campaign = FleetCampaign(
                fleet,
                SCOPE,
                structure,
                lane_width=8,  # many batches: both workers get tasks
                batch_progress=kill_victim,
            )
            assert campaign.run(_scenario()).counters() == oracle
            stats = fleet.stats()
            assert killed and stats["workers_lost"] >= 1
            assert stats["workers_respawned"] >= 1
            assert fleet.alive_count() == 2

    def test_worker_dead_before_dispatch_is_excluded(self, structure, oracle):
        """A worker that died between jobs never receives a shard; the run
        completes on the survivors alone, counters unchanged."""
        with WorkerFleet(2) as fleet:
            campaign = FleetCampaign(fleet, SCOPE, structure, lane_width=8)
            victim = fleet.live_handles()[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            assert fleet.alive_count() == 1
            assert campaign.run(_scenario()).counters() == oracle

    def test_cancel_event_aborts_with_service_shutdown(self, structure):
        cancel = threading.Event()
        with WorkerFleet(2) as fleet:
            campaign = FleetCampaign(
                fleet,
                SCOPE,
                structure,
                lane_width=8,
                batch_progress=lambda done, total: cancel.set(),
                cancel=cancel,
            )
            with pytest.raises(ServiceShutdown):
                campaign.run(_scenario())
        assert multiprocessing.active_children() == []

    def test_closed_fleet_refuses_work(self, structure):
        fleet = WorkerFleet(1)
        fleet.close()
        with pytest.raises(FleetError, match="closed"):
            FleetCampaign(fleet, SCOPE, structure)


class TestDeterministicClose:
    def test_no_surviving_processes(self, structure):
        fleet = WorkerFleet(2)
        FleetCampaign(fleet, SCOPE, structure).run(_scenario())
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

        cancel = threading.Event()
        fleet = WorkerFleet(2)
        for handle in fleet.live_handles():
            watch(handle.process)
        # Kept outcomes put every observed code in the replies: far more
        # bytes than a pipe buffers once the cancelled run stops reading them.
        campaign = FleetCampaign(
            fleet,
            SCOPE,
            structure,
            lane_width=8,
            keep_outcomes=True,
            batch_progress=lambda done, total: cancel.set(),
            cancel=cancel,
        )
        with pytest.raises(ServiceShutdown):
            campaign.run(_scenario())
        fleet.close()
        assert terminated == []
        assert exit_codes == [0, 0]
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self):
        fleet = WorkerFleet(1)
        fleet.close()
        fleet.close()
        assert multiprocessing.active_children() == []
