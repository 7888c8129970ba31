"""Guardrail overhead: what armed monitors cost on each substrate.

Not a paper figure — a pytest-benchmark suite quantifying the runtime
guardrail subsystem (docs/ROBUSTNESS.md).  The *disabled* cost is covered
by `bench_simulator_performance.py` staying inside the bench-compare gate
(with no rail attached no check runs, so the existing benchmarks
measure exactly the guards-off tree); the benchmarks here measure the
*armed* cost: the engine's per-event checks, the packet heartbeat
sweep, and the fluid allocation checks.
"""

from repro.fluid.allocation import MLTCPWeighted
from repro.fluid.flowsim import run_fluid
from repro.guards import GuardRail, install_packet_guards
from repro.simulator.engine import Simulator
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.reno import RenoCC
from repro.workloads.presets import four_job_scenario


def test_event_engine_monitored_throughput(benchmark):
    """The 10k-event chain of `test_event_engine_throughput`, but with the
    engine's monitor checks armed (`Simulator(monitor=rail)`)."""

    def run_10k_events():
        rail = GuardRail("record")
        sim = Simulator(monitor=rail)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(1e-6, tick)

        sim.schedule(1e-6, tick)
        sim.run()
        assert len(rail) == 0
        return count[0]

    assert benchmark(run_10k_events) == 10_000


def test_packet_transfer_guarded_benchmark(benchmark):
    """The 1 MB transfer of `test_packet_transfer_benchmark` with the full
    packet guardrail armed: monitored engine plus heartbeat sweeps."""

    def transfer():
        rail = GuardRail("record")
        sim = Simulator(monitor=rail)
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        sender = TcpSender(sim, net.hosts["s0"], "f", "r0", RenoCC())
        TcpReceiver(sim, net.hosts["r0"], "f", "s0")
        install_packet_guards(sim, net, {"f": sender}, rail)
        sender.send_bytes(1_000_000)
        sim.run(until=0.5)
        assert len(rail) == 0
        return sender.all_acked()

    assert benchmark(transfer)


def test_fluid_four_jobs_guarded_benchmark(benchmark):
    """The 20-iteration fluid run of `test_fluid_four_jobs_benchmark` with
    per-allocation capacity/non-negativity checks armed."""

    def run():
        rail = GuardRail("record")
        result = run_fluid(
            four_job_scenario(),
            50.0,
            policy=MLTCPWeighted(),
            max_iterations=20,
            seed=5,
            record_segments=False,
            guards=rail,
        )
        assert len(rail) == 0
        return len(result.iterations)

    assert benchmark(run) >= 80


def test_guardrail_record_throughput(benchmark):
    """Raw cost of recording violations (the worst case: every report
    accepted, none raised)."""

    def record_2k():
        rail = GuardRail("record", max_violations=1_000)
        for i in range(2_000):
            rail.violation("cwnd-bounds", "f", float(i), "over the cap")
        assert len(rail) == 1_000
        assert rail.dropped == 1_000
        return len(rail)

    assert benchmark(record_2k) == 1_000
