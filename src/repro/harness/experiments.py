"""One callable per paper figure/claim — the reproduction's backbone.

Each ``fig*`` function runs the corresponding experiment end to end and
returns a small result object the benchmarks print and the integration
tests assert on.  Parameters default to paper scale but can be shrunk for
quick runs.
"""

from __future__ import annotations

import functools
import math

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule
    from ..fluid.network import NetworkFluidResult
    from ..guards.core import GuardRail

from ..core.aggressiveness import (
    AggressivenessFunction,
    LinearAggressiveness,
    paper_functions,
)
from ..core.analysis import convergence_error_std, gradient_descent, loss_curve, signed_shift
from ..faults.chaos import ChaosBudget, ChaosCampaign
from ..fluid.allocation import FairShare, MLTCPWeighted, SRPT
from ..fluid.flowsim import FluidResult, run_fluid
from ..metrics.convergence import detect_convergence
from ..metrics.recovery import RecoverySLO, recovery_slos
from ..metrics.stats import empirical_cdf, percentile, tail_speedup
from ..schedulers.centralized import CentralizedScheduler, Schedule
from ..tcp.dctcp import DctcpCC
from ..tcp.mltcp import MLTCPDctcp, MLTCPReno
from ..tcp.reno import RenoCC
from ..metrics.contention import LinkContention, link_contention_report
from ..workloads.job import JobSpec
from ..workloads.placement import FabricSpec, JobPlacement, place_jobs
from ..workloads.presets import (
    BOTTLENECK_GBPS,
    cross_rack_scenario,
    four_job_scenario,
    six_job_scenario,
    three_job_scenario,
)
from ..workloads.traffic import DOUBLE_HUMP, SQUARE, demand_trace
from .packetlab import (
    CcFactory,
    PacketLabResult,
    mltcp_config_for,
    run_packet_jobs,
    run_packet_placements,
)

__all__ = [
    "fig1_traffic_patterns",
    "Fig2Result",
    "fig2_schedules",
    "fig3_aggressiveness",
    "Fig4Result",
    "fig4_six_jobs",
    "fig5_loss_function",
    "Fig6Result",
    "fig6_packet_two_jobs",
    "noise_error_bound",
    "fairness_loss_response",
    "fairness_competition_share",
    "FaultRecoveryResult",
    "RECOVERY_FAULTS",
    "RECOVERY_POLICIES",
    "fault_recovery",
    "check_recovery_schedule",
    "CrossRackResult",
    "cross_rack_interleaving",
    "ChaosResult",
    "chaos_recovery",
]


# ---------------------------------------------------------------------------
# Figure 1: traffic patterns of the four jobs
# ---------------------------------------------------------------------------

def fig1_traffic_patterns(
    duration: float = 5.0, dt: float = 0.01
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Offered-load traces for J1 (GPT-3) and J2–J4 (GPT-2), Figure 1.

    The GPT-3-like job has a long single-plateau collective; the GPT-2-like
    jobs show the double-hump the paper's traces exhibit.
    """
    traces: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for job in four_job_scenario(jitter_sigma=0.0):
        shape = SQUARE if job.name == "J1" else DOUBLE_HUMP
        traces[job.name] = demand_trace(job, duration, dt=dt, shape=shape)
    return traces


# ---------------------------------------------------------------------------
# Figure 2: centralized vs SRPT vs MLTCP on the four-job mix
# ---------------------------------------------------------------------------

@dataclass
class Fig2Result:
    """Everything Figure 2 (and §2's approximation-error claim) reports."""

    schedule: Schedule
    optimal_times: dict[str, float]
    srpt_times: dict[str, float]
    mltcp_times: dict[str, float]
    mltcp_converged_at: Optional[int]
    mltcp_gap_vs_optimal: float
    srpt_result: FluidResult = field(repr=False)
    mltcp_result: FluidResult = field(repr=False)

    @property
    def srpt_j1_slowdown(self) -> float:
        """J1's slowdown under SRPT relative to the optimal schedule."""
        return self.srpt_times["J1"] / self.optimal_times["J1"]


def fig2_schedules(
    iterations: int = 60,
    capacity_gbps: float = BOTTLENECK_GBPS,
    seed: int = 5,
    early_window: int = 10,
) -> Fig2Result:
    """Reproduce Figure 2: optimal (Cassini-like), SRPT (pFabric), MLTCP.

    * optimal: centralized offset optimization, zero contention expected;
    * SRPT: all four jobs start together; averages over the *early* window
      (the paper's Figure 2(b) shows the first iterations, before fluid-
      level jitter slowly drifts SRPT's schedule apart);
    * MLTCP: same synchronized start, converges to the optimal interleave.
    """
    jobs = four_job_scenario()
    scheduler = CentralizedScheduler([j.with_jitter(0.0) for j in jobs], capacity_gbps)
    schedule = scheduler.optimize()
    optimal_times = scheduler.iteration_times_if_scheduled(schedule)

    srpt_result = run_fluid(
        jobs, capacity_gbps, policy=SRPT(), max_iterations=iterations, seed=seed
    )
    srpt_times = {
        j.name: float(srpt_result.iteration_times(j.name)[:early_window].mean())
        for j in jobs
    }

    mltcp_result = run_fluid(
        jobs, capacity_gbps, policy=MLTCPWeighted(), max_iterations=iterations, seed=seed
    )
    mltcp_times = {
        j.name: float(mltcp_result.iteration_times(j.name)[-early_window:].mean())
        for j in jobs
    }

    # Convergence of the average iteration time toward the optimal average.
    rounds = mltcp_result.mean_iteration_by_round()
    target = float(np.mean(list(optimal_times.values())))
    report = detect_convergence(rounds, target=target, tolerance=0.05)
    gap = abs(float(np.mean(list(mltcp_times.values()))) - target) / target
    return Fig2Result(
        schedule=schedule,
        optimal_times=optimal_times,
        srpt_times=srpt_times,
        mltcp_times=mltcp_times,
        mltcp_converged_at=report.converged_at,
        mltcp_gap_vs_optimal=gap,
        srpt_result=srpt_result,
        mltcp_result=mltcp_result,
    )


# ---------------------------------------------------------------------------
# Figure 3: aggressiveness-function comparison
# ---------------------------------------------------------------------------

def fig3_aggressiveness(
    iterations: int = 40,
    capacity_gbps: float = BOTTLENECK_GBPS,
    seed: int = 11,
    functions: Optional[dict[str, AggressivenessFunction]] = None,
) -> dict[str, np.ndarray]:
    """Average iteration time per round for each F1…F6 (Figure 3).

    Three identical GPT-2 jobs start synchronized; increasing functions
    interleave (series decreases to the ideal), decreasing ones do not.
    """
    if functions is None:
        functions = paper_functions()
    jobs = three_job_scenario()
    series: dict[str, np.ndarray] = {}
    for name, function in functions.items():
        result = run_fluid(
            jobs,
            capacity_gbps,
            policy=MLTCPWeighted(function),
            max_iterations=iterations,
            seed=seed,
            record_segments=False,
        )
        series[name] = result.mean_iteration_by_round(max_rounds=iterations)
    return series


# ---------------------------------------------------------------------------
# Figure 4: six jobs, Reno vs MLTCP-Reno, CDF of iteration times
# ---------------------------------------------------------------------------

@dataclass
class Fig4Result:
    """Figure 4's three panels in data form."""

    reno_result: FluidResult = field(repr=False)
    mltcp_result: FluidResult = field(repr=False)
    reno_times: np.ndarray = field(repr=False)
    mltcp_times: np.ndarray = field(repr=False)
    tail_speedup_p99: float = 0.0
    median_speedup: float = 0.0

    def cdfs(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Empirical CDFs of both policies' iteration times (panel c)."""
        return {
            "reno": empirical_cdf(self.reno_times),
            "mltcp": empirical_cdf(self.mltcp_times),
        }


def fig4_six_jobs(
    iterations: int = 400,
    capacity_gbps: float = BOTTLENECK_GBPS,
    seed: int = 5,
) -> Fig4Result:
    """Reproduce Figure 4: six GPT-2 jobs under fair share vs MLTCP.

    Iteration times are pooled over the whole lifetime of the jobs (as the
    paper's CDF is), so the lifetime must be long enough that MLTCP's brief
    convergence transient does not own the tail percentile — 400 iterations
    keeps it under 1%.  Reno stays congested throughout, giving the ~1.5x
    p99 speedup (paper: 1.59x).
    """
    jobs = six_job_scenario()
    # Only per-iteration times are read, so no rate segments are recorded.
    reno_result = run_fluid(
        jobs, capacity_gbps, policy=FairShare(), max_iterations=iterations,
        seed=seed, record_segments=False,
    )
    mltcp_result = run_fluid(
        jobs, capacity_gbps, policy=MLTCPWeighted(), max_iterations=iterations,
        seed=seed, record_segments=False,
    )
    reno_times = reno_result.all_iteration_times()
    mltcp_times = mltcp_result.all_iteration_times()
    return Fig4Result(
        reno_result=reno_result,
        mltcp_result=mltcp_result,
        reno_times=reno_times,
        mltcp_times=mltcp_times,
        tail_speedup_p99=tail_speedup(reno_times, mltcp_times, q=99),
        median_speedup=percentile(reno_times, 50) / percentile(mltcp_times, 50),
    )


# ---------------------------------------------------------------------------
# Figure 5(c): the loss function
# ---------------------------------------------------------------------------

def fig5_loss_function(
    alpha: float = 0.5,
    period: float = 1.8,
    samples: int = 361,
) -> dict[str, np.ndarray]:
    """Loss (Eq. 4) and shift (Eq. 3) curves over one period, Figure 5(c)."""
    deltas, losses = loss_curve(alpha, period, samples=samples)
    shifts = np.array([signed_shift(d, alpha, period) for d in deltas])
    return {"delta": deltas, "loss": losses, "shift": shifts}


# ---------------------------------------------------------------------------
# Figure 6: packet-level MLTCP-Reno sliding of two jobs
# ---------------------------------------------------------------------------

@dataclass
class Fig6Result:
    """Packet-level two-job run: per-job series and throughput timelines."""

    iteration_times: dict[str, np.ndarray]
    throughput: dict[str, tuple[np.ndarray, np.ndarray]]
    ideal_iteration_time: float
    converged_at: Optional[int]
    final_mean: float


def fig6_packet_two_jobs(
    iterations: int = 40,
    mltcp: bool = True,
    seed: int = 2,
    jitter_sigma: float = 0.0005,
) -> Fig6Result:
    """Two identical alpha=1/2 jobs over the packet simulator (Figure 6).

    Scaled units (DESIGN.md §2): 1 Gbps bottleneck, 8 Mbit collectives,
    10 ms compute — preserving alpha = 1/2 and full-overlap contention.
    MLTCP-Reno slides the jobs into an interleaved schedule within a few
    tens of iterations.
    """
    job_template = JobSpec(
        name="Job",
        comm_bits=8e6,
        demand_gbps=1.0,
        compute_time=0.010,
        jitter_sigma=jitter_sigma,
    )
    jobs = [job_template.with_name("Job1"), job_template.with_name("Job2")]
    cc = _PACKET_CC["mltcp" if mltcp else "reno"]
    lab = run_packet_jobs(jobs, cc, max_iterations=iterations, seed=seed)
    per_job = {job.name: lab.iteration_times(job.name) for job in jobs}
    rounds = lab.mean_iteration_by_round()
    # Ideal at packet level includes header overhead on the wire.
    overhead = 1500.0 / 1460.0
    ideal = job_template.ideal_comm_time * overhead + job_template.compute_time
    report = detect_convergence(rounds, target=ideal, tolerance=0.08)
    return Fig6Result(
        iteration_times=per_job,
        throughput={job.name: lab.throughput(job.name) for job in jobs},
        ideal_iteration_time=ideal,
        converged_at=report.converged_at,
        final_mean=report.final_mean,
    )


# ---------------------------------------------------------------------------
# §4: noise / approximation-error bound
# ---------------------------------------------------------------------------

def noise_error_bound(
    sigmas: Sequence[float] = (0.001, 0.002, 0.005, 0.01, 0.02),
    alpha: float = 0.5,
    period: float = 1.8,
    iterations: int = 4000,
    settle_fraction: float = 0.25,
    seed: int = 0,
) -> list[dict[str, float]]:
    """Measured steady-state error std vs the 2*sigma*(1+I/S) bound (§4).

    Runs the two-job gradient descent with Gaussian iteration-time noise and
    measures the distance of the settled start-time difference from the
    interleaved point.
    """
    rows = []
    for sigma in sigmas:
        rng = np.random.default_rng(seed)
        trajectory = gradient_descent(
            delta0=0.1 * period,
            alpha=alpha,
            period=period,
            iterations=iterations,
            noise_sigma=sigma,
            rng=rng,
        )
        errors = trajectory.steady_state_error(settle_fraction=settle_fraction)
        rows.append(
            {
                "sigma": float(sigma),
                "measured_std": float(errors.std()),
                "theory_bound": convergence_error_std(sigma),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# §5: fairness — throughput response to loss probability
# ---------------------------------------------------------------------------

def fairness_competition_share(
    loss_probs: Sequence[float] = (0.0, 0.001, 0.002),
    bottleneck_bps: float = 1e9,
    link_delay: float = 100e-6,
    horizon: float = 2.0,
    seeds: Sequence[int] = (1, 2, 3),
) -> list[dict[str, float]]:
    """§5 fairness: a saturated MLTCP-Reno flow vs a Reno flow, sharing a
    (possibly lossy) bottleneck.

    "Given the same packet loss probability, an MLTCP-Reno flow claims more
    bandwidth share than a standard Reno flow.  However, MLTCP-Reno flows
    would not starve the other legacy flows."  Each row competes the two
    flows for ``horizon`` seconds (averaged over ``seeds``) and reports
    their goodputs; the MLTCP flow is deep into its iteration
    (``bytes_ratio = 1``, so ``F = slope + intercept = 2``).
    """
    from ..core.config import MLTCPConfig as _Cfg
    from ..simulator.engine import Simulator as _Sim
    from ..simulator.queues import DropTailQueue as _Queue
    from ..simulator.topology import build_dumbbell as _dumbbell
    from ..tcp.base import TcpReceiver as _Rx, TcpSender as _Tx

    rows = []
    for p in loss_probs:
        mltcp_total, reno_total = 0.0, 0.0
        for seed in seeds:
            sim = _Sim()
            net = _dumbbell(
                sim,
                2,
                bottleneck_bps=bottleneck_bps,
                link_delay=link_delay,
                bottleneck_queue=_Queue(64),
                bottleneck_random_loss=p,
                loss_seed=seed,
            )
            # total_bytes=1 pins bytes_ratio at 1 (the saturated flow the
            # quote describes), which is not an estimate of the real volume:
            # degradation must stay out of the way.
            ccs = [
                MLTCPReno(
                    _Cfg(total_bytes=1, comp_time=1e9, degrade_on_unreliable=False)
                ),
                RenoCC(),
            ]
            senders = []
            for i, cc in enumerate(ccs):
                sender = _Tx(
                    sim, net.hosts[f"s{i}"], f"f{i}", f"r{i}", cc, min_rto=10e-3
                )
                _Rx(sim, net.hosts[f"r{i}"], f"f{i}", f"s{i}")
                sender.send_bytes(int(bottleneck_bps * horizon / 4))  # ample
                senders.append(sender)
            sim.run(until=horizon)
            mltcp_total += senders[0].snd_una * senders[0].mss_bytes
            reno_total += senders[1].snd_una * senders[1].mss_bytes
        scale = 8 / (horizon * len(seeds)) / 1e6
        rows.append(
            {
                "loss_prob": float(p),
                "mltcp_mbps": mltcp_total * scale,
                "reno_mbps": reno_total * scale,
                "share_ratio": mltcp_total / max(1.0, reno_total),
            }
        )
    return rows


def fairness_loss_response(
    loss_probs: Sequence[float] = (0.0005, 0.001, 0.002, 0.004),
    transfer_bytes: int = 20_000_000,
    bottleneck_bps: float = 1e9,
    link_delay: float = 300e-6,
    seed: int = 1,
) -> list[dict[str, float]]:
    """§5 substrate check: a lone Reno flow follows the Mathis 1/sqrt(p) law.

    The paper's fairness argument starts from "TCP's throughput is inversely
    proportional to the square root of loss probability" [Mathis et al.].
    Each row runs one long Reno transfer over a random-loss bottleneck with
    a deep buffer (so every loss is an isolated random drop, the Mathis
    model's regime) and reports the achieved throughput; doubling ``p``
    should cut throughput by roughly ``sqrt(2)``.
    """
    from ..simulator.engine import Simulator as _Sim
    from ..simulator.queues import DropTailQueue as _Queue
    from ..simulator.topology import build_dumbbell as _dumbbell
    from ..tcp.base import TcpReceiver as _Rx, TcpSender as _Tx

    rows = []
    for p in loss_probs:
        sim = _Sim()
        net = _dumbbell(
            sim,
            1,
            bottleneck_bps=bottleneck_bps,
            link_delay=link_delay,
            bottleneck_queue=_Queue(4000),
            bottleneck_random_loss=p,
            loss_seed=seed,
        )
        cc = RenoCC()
        sender = _Tx(sim, net.hosts["s0"], "f", "r0", cc, min_rto=10e-3, max_rto=2.0)
        _Rx(sim, net.hosts["r0"], "f", "s0")
        finish: dict[str, float] = {}
        sender.on_all_acked = lambda f=finish: f.setdefault("t", sim.now)
        sender.send_bytes(transfer_bytes)
        sim.run(until=120.0)
        elapsed = finish.get("t", sim.now)
        rows.append(
            {
                "loss_prob": float(p),
                "reno_mbps": transfer_bytes * 8 / elapsed / 1e6,
                "mathis_prediction_mbps": _mathis_mbps(p, link_delay),
            }
        )
    return rows


def _mathis_mbps(loss_prob: float, link_delay: float) -> float:
    """Mathis et al. throughput model: MSS/RTT * sqrt(3/2) / sqrt(p)."""
    rtt = 6.0 * link_delay  # three hops each way on the dumbbell
    mss_bits = 1460 * 8
    return mss_bits / rtt * math.sqrt(1.5 / loss_prob) / 1e6


# ---------------------------------------------------------------------------
# Robustness: recovery after injected faults (docs/FAULTS.md)
# ---------------------------------------------------------------------------

#: Packet-level congestion control per policy name, one fresh instance per
#: job; "fair" is vanilla Reno, the packet form of fair share.
_PACKET_CC: dict[str, CcFactory] = {
    "dctcp": lambda job: DctcpCC(),
    "fair": lambda job: RenoCC(),
    "mltcp": lambda job: MLTCPReno(mltcp_config_for(job)),
    "mltcp-dctcp": lambda job: MLTCPDctcp(mltcp_config_for(job)),
    "reno": lambda job: RenoCC(),
}

#: The congestion-control policies :func:`fault_recovery` runs, per
#: substrate.  The fluid model has no packets, so loss-based (reno) and
#: ECN-driven (dctcp) TCP both run as fair share, their fluid limit.
RECOVERY_POLICIES: dict[str, tuple[str, ...]] = {
    "fluid": ("dctcp", "fair", "mltcp", "reno"),
    "packet": tuple(_PACKET_CC),
}

#: The fault classes :func:`fault_recovery` builds a schedule for, each as
#: its one event's parameters.  The event strikes after 25 healthy
#: iterations; ``duration`` and ``restart_delay`` count healthy iterations.
RECOVERY_FAULTS: dict[str, dict[str, float]] = {
    "link_down": {"duration": 5.0},
    "bandwidth": {"duration": 5.0, "factor": 0.5},
    "loss_burst": {"duration": 5.0, "loss": 0.05},
    "ecn_storm": {"duration": 5.0},
    "straggler": {"duration": 5.0, "factor": 2.0},
    "job_restart": {"restart_delay": 2.0},
}


@dataclass
class FaultRecoveryResult:
    """How a policy rode out one fault class, in both substrates' terms.

    The disturbance metric is the per-round mean iteration time of the
    faulted run compared round-by-round against a fault-free control run
    with the same policy and seed — the comparison cancels the convergence
    transient and the jitter realization, so ``disturbed_rounds`` counts
    only rounds the fault actually perturbed.  ``reconverged_at`` is the
    first round after which every remaining round stays within tolerance
    (0 when the fault never pushed the system out).
    """

    policy: str
    fault: str
    substrate: str
    target: float
    tolerance: float
    disturbed_rounds: int
    reconverged_at: int
    recovered: bool
    final_mean: float
    fault_log: list[str] = field(repr=False, default_factory=list)
    series: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))
    baseline_series: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))
    #: MLTCP degradation episodes observed during the *faulted* run
    #: (``{"flow", "reason", "start", "end"}``; packet substrate only —
    #: fluid policies carry no per-flow tracker).  See docs/ROBUSTNESS.md.
    degradation_episodes: list[dict] = field(repr=False, default_factory=list)


def _check_substrate(substrate: str) -> None:
    if substrate not in ("fluid", "packet"):
        raise ValueError(
            f"unknown substrate {substrate!r}; valid: ['fluid', 'packet']"
        )


def _fault_schedule_for(
    fault: str, unit: float, job: str, seed: int
) -> "FaultSchedule":
    """The one-event schedule of class ``fault`` (:data:`RECOVERY_FAULTS`),
    with times in units of one healthy iteration; job faults hit ``job``."""
    from ..faults.schedule import FaultEvent, FaultSchedule

    params = dict(RECOVERY_FAULTS[fault])
    event = FaultEvent(
        fault,
        time=25.0 * unit,
        duration=params.pop("duration", 0.0) * unit,
        restart_delay=params.pop("restart_delay", 0.0) * unit,
        job=job if fault in ("straggler", "job_restart") else None,
        **params,
    )
    return FaultSchedule(events=(event,), seed=seed)


def fault_recovery(
    fault: str = "link_down",
    policy: str = "mltcp",
    substrate: str = "fluid",
    iterations: int = 80,
    seed: int = 5,
    tolerance: float = 0.10,
    capacity_gbps: float = BOTTLENECK_GBPS,
    schedule_json: Optional[str] = None,
    guards: Optional["GuardRail"] = None,
) -> FaultRecoveryResult:
    """Measure iterations-to-reconverge after one injected fault (§4's
    robustness claim, stress-tested).

    Runs the same job mix twice — once clean, once with a single fault of
    class ``fault`` striking after ~25 healthy iterations — and reports how
    many rounds the faulted run's per-round mean deviated from the control
    by more than ``tolerance``.  ``policy`` is ``"mltcp"``, ``"reno"`` /
    ``"fair"`` (fair share) or ``"dctcp"``; ``substrate`` picks the fluid
    flow-level model (three GPT-2 jobs) or the packet simulator (two jobs
    on a 1 Gbps dumbbell, Figure 6's scaled units).  ``schedule_json`` (a
    :meth:`~repro.faults.schedule.FaultSchedule.to_json` document) replaces
    the built-in single-event schedule with a custom one — event times are
    then absolute simulation seconds, link/job names must fit the chosen
    substrate's topology, and ``fault`` is just a label.  The paper's
    point: MLTCP's interleaving re-forms by itself after the disturbance —
    no controller, no coordination — so its disturbed-round count stays
    small and ``recovered`` comes back ``True``.

    ``guards`` threads a :class:`~repro.guards.core.GuardRail` through both
    the clean and the faulted run (invariant monitors + watchdogs,
    docs/ROBUSTNESS.md); violations accumulate on the rail and MLTCP
    degradation episodes from the faulted run are surfaced on the result.
    Without a rail, the clean run depends only on the substrate, policy,
    iterations, seed and capacity, so one process computes it once for
    every fault class of that cell.
    """
    from ..faults.schedule import FaultSchedule

    _check_substrate(substrate)
    if policy not in RECOVERY_POLICIES[substrate]:
        raise ValueError(
            f"unknown policy {policy!r} for the {substrate} substrate; "
            f"valid: {list(RECOVERY_POLICIES[substrate])}"
        )
    schedule: Optional[FaultSchedule] = None
    if schedule_json is not None:
        schedule = FaultSchedule.from_json(schedule_json)
        check_recovery_schedule(schedule, substrate)
    elif fault not in RECOVERY_FAULTS:
        raise ValueError(
            f"unknown fault class {fault!r}; valid: {sorted(RECOVERY_FAULTS)}"
        )
    cell = (substrate, policy, iterations, seed, capacity_gbps)
    if guards is None:
        # Each result gets its own copy of the shared control series.
        baseline = _control_series(*cell).copy()
    else:
        # A rail must see its own control run.
        baseline = _recovery_run(*cell, None, guards).mean_iteration_by_round()
    unit = float(baseline[len(baseline) // 2:].mean())
    if schedule is None:
        schedule = _fault_schedule_for(
            fault, unit, _recovery_jobs(substrate)[0].name, seed
        )
    faulted = _recovery_run(*cell, schedule, guards)
    result = _recovery_from_series(
        policy, fault, substrate,
        faulted.mean_iteration_by_round(), baseline, tolerance, faulted.fault_log,
    )
    result.degradation_episodes = list(faulted.degradation_episodes)
    return result


def _recovery_run(
    substrate: str,
    policy: str,
    iterations: int,
    seed: int,
    capacity_gbps: float,
    faults: Optional["FaultSchedule"],
    guards: Optional["GuardRail"],
) -> FluidResult | PacketLabResult:
    """One :func:`fault_recovery` run of ``policy`` on ``substrate``."""
    jobs = _recovery_jobs(substrate)
    if substrate == "fluid":
        allocation = MLTCPWeighted if policy == "mltcp" else FairShare
        return run_fluid(
            jobs, capacity_gbps, policy=allocation(),
            max_iterations=iterations, seed=seed, faults=faults, guards=guards,
        )
    return run_packet_jobs(
        jobs, _PACKET_CC[policy], max_iterations=iterations, seed=seed,
        faults=faults, guards=guards,
    )


@functools.lru_cache(maxsize=64)
def _control_series(
    substrate: str, policy: str, iterations: int, seed: int, capacity_gbps: float
) -> np.ndarray:
    """The fault-free control run's per-round means, computed once per
    process for every fault class of one sweep cell (read-only: callers
    copy it)."""
    series = _recovery_run(
        substrate, policy, iterations, seed, capacity_gbps, None, None
    ).mean_iteration_by_round()
    series.flags.writeable = False
    return series


def _recovery_jobs(substrate: str) -> list[JobSpec]:
    """The job mix :func:`fault_recovery` runs on ``substrate``: three GPT-2
    jobs in the fluid model, two Figure 6 jobs on the packet dumbbell."""
    if substrate == "fluid":
        return three_job_scenario()
    job_template = JobSpec(
        name="Job",
        comm_bits=8e6,
        demand_gbps=1.0,
        compute_time=0.010,
        jitter_sigma=0.0005,
    )
    return [job_template.with_name("Job1"), job_template.with_name("Job2")]


def check_recovery_schedule(schedule: "FaultSchedule", substrate: str) -> None:
    """Check a custom :func:`fault_recovery` schedule's targets up front.

    Validates ``schedule`` against ``substrate``'s job names and link names
    — the checks the run would make only once it reaches the fault — and
    rejects fabric faults, which need a multi-rack fabric these testbeds do
    not have.  Raises ``ValueError`` naming the first bad event.
    """
    from ..faults.fluid import FLUID_LINKS
    from ..faults.schedule import FABRIC_KINDS
    from ..simulator.engine import Simulator
    from ..simulator.topology import build_dumbbell

    _check_substrate(substrate)
    jobs = [job.name for job in _recovery_jobs(substrate)]
    if substrate == "fluid":
        links: Sequence[str] = FLUID_LINKS
    else:
        network = build_dumbbell(Simulator(), len(jobs), 1e9)
        links = [f"{src}->{dst}" for src, dst in network.links]
    schedule.validate(link_names=links, job_names=jobs)
    for i, event in enumerate(schedule.events):
        if event.kind in FABRIC_KINDS:
            raise ValueError(
                f"fault event #{i} ({event.kind!r}): a fabric fault needs a "
                f"multi-rack fabric; the {substrate} fault_recovery testbed "
                "has a single bottleneck"
            )


def _recovery_from_series(
    policy: str,
    fault: str,
    substrate: str,
    series: np.ndarray,
    baseline: np.ndarray,
    tolerance: float,
    fault_log: list[str],
) -> FaultRecoveryResult:
    rounds = min(len(series), len(baseline))
    if rounds == 0:
        raise RuntimeError(
            f"faulted {substrate} run completed no common rounds "
            f"(fault={fault!r}, policy={policy!r}); lengthen the run"
        )
    series, baseline = series[:rounds], baseline[:rounds]
    target = float(baseline[rounds // 2:].mean())
    within = np.abs(series - baseline) <= tolerance * target
    disturbed = np.flatnonzero(~within)
    reconverged_at = int(disturbed[-1]) + 1 if disturbed.size else 0
    tail = min(3, rounds)
    return FaultRecoveryResult(
        policy=policy,
        fault=fault,
        substrate=substrate,
        target=target,
        tolerance=tolerance,
        disturbed_rounds=int(disturbed.size),
        reconverged_at=reconverged_at,
        recovered=bool(within[-tail:].all()),
        final_mean=float(series[-tail:].mean()),
        fault_log=list(fault_log),
        series=series,
        baseline_series=baseline,
    )


# ---------------------------------------------------------------------------
# Cross-rack fabrics: MLTCP vs vanilla CC on a multi-bottleneck fat tree
# ---------------------------------------------------------------------------

@dataclass
class CrossRackResult:
    """MLTCP vs fair-share interleaving on one oversubscribed fabric.

    ``mltcp_series``/``fair_series`` are the per-round mean iteration
    times across all jobs; ``link_utilization`` maps policy name to the
    per-link mean utilization of its run; ``contention`` is the static
    per-uplink hyper-period analysis of the placement
    (:func:`repro.metrics.contention.link_contention_report`).
    """

    substrate: str
    spec: FabricSpec
    placement_policy: str
    placements: tuple[JobPlacement, ...]
    ideal_iteration_time: float
    mltcp_series: np.ndarray
    fair_series: np.ndarray
    link_utilization: dict[str, dict[str, float]]
    contention: list[LinkContention] = field(repr=False, default_factory=list)

    def final_mean(self, policy: str, window: int = 5) -> float:
        """Mean of the last ``window`` rounds under ``policy``."""
        series = {"mltcp": self.mltcp_series, "fair": self.fair_series}[policy]
        return float(series[-window:].mean())

    @property
    def speedup(self) -> float:
        """Converged fair-share iteration time over MLTCP's (>1: MLTCP wins)."""
        return self.final_mean("fair") / self.final_mean("mltcp")

    @property
    def cross_rack_flows(self) -> int:
        """How many placed flows actually cross rack uplinks."""
        return sum(1 for p in self.placements if p.cross_rack)


def cross_rack_interleaving(
    substrate: str = "fluid",
    n_racks: int = 4,
    hosts_per_rack: int = 4,
    n_spines: int = 2,
    oversubscription: float = 2.0,
    placement: str = "spread",
    n_jobs: Optional[int] = None,
    iterations: int = 40,
    seed: int = 2,
    ecmp_seed: int = 2,
    jitter_sigma: float = 0.0005,
) -> CrossRackResult:
    """MLTCP vs vanilla CC on a multi-rack oversubscribed fat tree.

    Places ``n_jobs`` identical jobs (default: one per host pair) on the
    fabric under ``placement`` (packed / spread / random) and runs the mix
    twice — MLTCP weights vs plain fair share — in the chosen substrate.
    Under ``"spread"`` every flow crosses two fabric links (rack uplink,
    spine downlink) whose competitor sets differ, so each congested link
    must develop the paper's sliding effect *independently*; vanilla CC
    stays synchronized and pays the contention every iteration.

    The defaults put 2 flows on each 1 Gbps uplink (ECMP seed 2 splits
    each rack's four cross-rack flows 2/2 over the spines) with a summed
    mean load of ~0.88 Gbps — compatible, so a perfect interleave exists,
    which is exactly the §4 regime.  Both runs share one base ``seed``;
    reruns are bit-reproducible.
    """
    spec = FabricSpec(
        n_racks=n_racks,
        hosts_per_rack=hosts_per_rack,
        n_spines=n_spines,
        oversubscription=oversubscription,
        ecmp_seed=ecmp_seed,
    )
    if n_jobs is None:
        n_jobs = spec.n_hosts // 2
    jobs = cross_rack_scenario(n_jobs, jitter_sigma=jitter_sigma)
    placements = place_jobs(jobs, spec, policy=placement, seed=seed)
    contention = link_contention_report(placements, spec)
    template = jobs[0]

    _check_substrate(substrate)
    series: dict[str, np.ndarray] = {}
    utilization: dict[str, dict[str, float]] = {}
    for policy in ("mltcp", "fair"):
        result = _fabric_run(substrate, placements, spec, policy, iterations, seed)
        series[policy] = result.mean_iteration_by_round()
        utilization[policy] = result.link_utilization()
    return CrossRackResult(
        substrate=substrate,
        spec=spec,
        placement_policy=placement,
        placements=placements,
        ideal_iteration_time=template.ideal_iteration_time,
        mltcp_series=series["mltcp"],
        fair_series=series["fair"],
        link_utilization=utilization,
        contention=contention,
    )


def _fabric_run(
    substrate: str,
    placements: tuple[JobPlacement, ...],
    spec: FabricSpec,
    policy: str,
    iterations: int,
    seed: int,
    schedule: Optional["FaultSchedule"] = None,
    guards: Optional["GuardRail"] = None,
) -> "NetworkFluidResult | PacketLabResult":
    """One run of the placed jobs under ``policy`` (``"mltcp"`` or
    ``"fair"``) on ``spec``'s fabric, in either substrate."""
    if substrate == "packet":
        return run_packet_placements(
            placements, spec, _PACKET_CC[policy], max_iterations=iterations,
            seed=seed, faults=schedule, guards=guards,
        )
    from ..fluid.fabric import FluidFabricFaults, place_on_fabric
    from ..fluid.network import run_network_fluid

    # The default fluid quantum (20 ms) is sized for paper-scale (second-
    # long) iterations; these jobs iterate every ~18 ms, so track the
    # sliding at ~1/10 iteration resolution instead.
    quantum = min(0.02, placements[0].job.ideal_iteration_time / 10.0)
    return run_network_fluid(
        place_on_fabric(spec, placements),
        spec.capacities_gbps(),
        mltcp=(policy == "mltcp"),
        max_iterations=iterations,
        seed=seed,
        quantum=quantum,
        fabric_faults=None if schedule is None else FluidFabricFaults(spec, schedule),
        guards=guards,
    )


# ---------------------------------------------------------------------------
# Chaos campaigns: failure-aware rerouting + recovery SLOs on the fabric
# ---------------------------------------------------------------------------

@dataclass
class ChaosResult:
    """One seeded chaos campaign replayed under MLTCP and fair share.

    ``slos`` maps policy name to the per-fault :class:`RecoverySLO` tuple
    (same schedule for both policies, so the lists align fault-by-fault);
    ``violations`` maps policy to the guard reports of its faulted run,
    each annotated with ``fault_context`` — the latest fault transition at
    or before the violation, the degradation-correlation signal
    docs/ROBUSTNESS.md describes.  ``degradation_episodes`` are MLTCP's
    tracker-sanity fallbacks (packet substrate only), likewise annotated.
    """

    substrate: str
    spec: FabricSpec
    placement_policy: str
    placements: tuple[JobPlacement, ...]
    ideal_iteration_time: float
    campaign_index: int
    campaign_seed: int
    schedule: "FaultSchedule"
    slos: dict[str, tuple[RecoverySLO, ...]]
    violations: dict[str, list[dict]]
    degradation_episodes: list[dict] = field(repr=False, default_factory=list)
    fault_log: dict[str, list[str]] = field(repr=False, default_factory=dict)
    series: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def fault_descriptions(self) -> list[str]:
        """Every scheduled fault, human-readable, in strike order."""
        return [event.describe() for event in self.schedule.sorted_events()]

    def reinterleaved(self, policy: str) -> bool:
        """Did ``policy`` re-reach the §4 condition after *every* fault?"""
        slos = self.slos[policy]
        return bool(slos) and all(slo.reinterleaved for slo in slos)

    def total_outage(self) -> float:
        """Summed seconds any placed pair had no surviving path."""
        some_policy = next(iter(self.slos))
        return float(sum(s.time_to_reroute for s in self.slos[some_policy]))


def _fault_context(schedule: "FaultSchedule", time: float) -> Optional[str]:
    """The latest fault transition at or before ``time``, rendered like the
    injectors' logs — used to correlate guard reports with fault windows."""
    latest: Optional[str] = None
    latest_t = -math.inf
    for event in schedule.sorted_events():
        if latest_t <= event.time <= time:
            latest = f"t={event.time:g}s: {event.describe()}"
            latest_t = event.time
        if event.duration > 0 and latest_t <= event.end_time <= time:
            latest = (
                f"t={event.end_time:g}s: {event.kind} on {event.target} reverted"
            )
            latest_t = event.end_time
    return latest


def chaos_recovery(
    substrate: str = "fluid",
    campaigns: int = 1,
    seed: int = 2,
    ecmp_seed: int = 2,
    n_racks: int = 4,
    hosts_per_rack: int = 4,
    n_spines: int = 2,
    oversubscription: float = 2.0,
    placement: str = "spread",
    n_jobs: Optional[int] = None,
    iterations: int = 48,
    budget: Optional[ChaosBudget] = None,
    guard_policy: Optional[str] = "record",
    tolerance: float = 0.10,
    window: int = 3,
    jitter_sigma: float = 0.0005,
    reinterleave_reference: Optional[float] = None,
) -> list[ChaosResult]:
    """Run seeded chaos campaigns and measure recovery SLOs per fault.

    Samples ``campaigns`` fault schedules from ``budget`` (default: a
    spine/uplink/rehash mix striking after ~18 healthy iterations, MTBF
    ~6 and durations ~4 iterations, one fault at a time, never
    blackholing) on the same 2:1-oversubscribed fabric
    :func:`cross_rack_interleaving` uses, then replays each campaign under
    MLTCP and fair share in the chosen substrate — plus one fault-free
    control run per policy, shared across campaigns, as the goodput
    baseline.  Everything keys off ``seed``/``ecmp_seed``: reruns are
    bit-reproducible, and both substrates replay the identical schedules.

    Per fault and policy the result carries a :class:`RecoverySLO`
    (time-to-reroute, time-to-reinterleave against the §4 condition,
    goodput lost); ``guard_policy`` threads a
    :class:`~repro.guards.core.GuardRail` through every faulted run
    (``None`` disables), and its reports come back annotated with the
    fault transition they coincide with.  The paper's claim, sharpened:
    after every single-spine failure MLTCP re-reaches the interleavable
    condition by itself, while fair share never does — even fault-free,
    its converged iteration time sits ~30% above ideal.

    ``reinterleave_reference`` is the iteration time the §4 check is
    relative to.  The fluid default is the job's ideal iteration time
    (perfect interleave = zero contention stretch).  The packet substrate
    carries irreducible packetization overhead (~1.5x ideal even for a
    lone flow), so there the default is the tail mean of the MLTCP
    control run — the fabric's measured achievable floor, still
    policy-independent, so fair share cannot trivially satisfy it.
    """
    from ..guards.core import GuardRail

    _check_substrate(substrate)
    if campaigns < 1:
        raise ValueError(f"campaigns must be positive, got {campaigns!r}")
    spec = FabricSpec(
        n_racks=n_racks,
        hosts_per_rack=hosts_per_rack,
        n_spines=n_spines,
        oversubscription=oversubscription,
        ecmp_seed=ecmp_seed,
    )
    if n_jobs is None:
        n_jobs = spec.n_hosts // 2
    jobs = cross_rack_scenario(n_jobs, jitter_sigma=jitter_sigma)
    placements = place_jobs(jobs, spec, policy=placement, seed=seed)
    ideal = jobs[0].ideal_iteration_time
    interleavable = all(
        entry.interleavable for entry in link_contention_report(placements, spec)
    )
    if budget is None:
        budget = ChaosBudget(
            horizon=12.0 * ideal,
            mtbf=6.0 * ideal,
            mean_duration=4.0 * ideal,
            start=18.0 * ideal,
            max_concurrent=1,
            min_events=1,
        )
    campaign = ChaosCampaign(
        spec=spec, budget=budget, seed=seed, n_campaigns=campaigns
    )

    controls = {
        policy: _fabric_run(substrate, placements, spec, policy, iterations, seed)
        for policy in ("mltcp", "fair")
    }
    if reinterleave_reference is None:
        if substrate == "fluid":
            reinterleave_reference = ideal
        else:
            control_series = controls["mltcp"].mean_iteration_by_round()
            tail = max(window, 5)
            reinterleave_reference = float(control_series[-tail:].mean())

    results: list[ChaosResult] = []
    for index in range(campaigns):
        schedule = campaign.schedule(index)
        slos: dict[str, tuple[RecoverySLO, ...]] = {}
        violations: dict[str, list[dict]] = {}
        fault_log: dict[str, list[str]] = {}
        series: dict[str, np.ndarray] = {}
        episodes: list[dict] = []
        for policy in ("mltcp", "fair"):
            rail = GuardRail(guard_policy) if guard_policy else None
            run = _fabric_run(
                substrate, placements, spec, policy, iterations, seed, schedule, rail
            )
            slos[policy] = recovery_slos(
                spec,
                schedule,
                placements,
                run.iterations,
                controls[policy].iterations,
                ideal_iteration_time=reinterleave_reference,
                interleavable=interleavable,
                tolerance=tolerance,
                window=window,
            )
            violations[policy] = [
                {**v.as_dict(), "fault_context": _fault_context(schedule, v.time)}
                for v in (rail.violations if rail is not None else [])
            ]
            fault_log[policy] = run.fault_log
            series[policy] = run.mean_iteration_by_round()
            if policy == "mltcp":
                episodes = [
                    {
                        **episode,
                        "fault_context": _fault_context(
                            schedule, float(episode.get("start", 0.0))
                        ),
                    }
                    for episode in run.degradation_episodes
                ]
        results.append(
            ChaosResult(
                substrate=substrate,
                spec=spec,
                placement_policy=placement,
                placements=placements,
                ideal_iteration_time=ideal,
                campaign_index=index,
                campaign_seed=campaign.campaign_seed(index),
                schedule=schedule,
                slos=slos,
                violations=violations,
                degradation_episodes=episodes,
                fault_log=fault_log,
                series=series,
            )
        )
    return results
