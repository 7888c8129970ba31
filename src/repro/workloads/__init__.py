"""Periodic DNN job models, paper-calibrated scenarios and demand traces."""

from .arrivals import ArrivalEvent, ArrivalModel, ArrivalStream, FlashCrowd
from .job import GBPS, IterationResult, JobSpec, feasible_on_link, gbit, total_mean_load_gbps
from .placement import (
    PLACEMENT_POLICIES,
    FabricSpec,
    JobPlacement,
    ecmp_index,
    host_rack,
    place_jobs,
)
from .presets import (
    BOTTLENECK_GBPS,
    DEFAULT_JITTER_SIGMA,
    cross_rack_job,
    cross_rack_scenario,
    four_job_scenario,
    gpt2_fast_job,
    gpt2_heavy_job,
    gpt2_job,
    gpt3_job,
    identical_jobs,
    six_job_scenario,
    three_job_scenario,
    two_job_scenario,
)
from .traceio import load_scenario, save_scenario
from .traffic import DOUBLE_HUMP, SQUARE, PulseShape, demand_trace

__all__ = [
    "ArrivalEvent",
    "ArrivalModel",
    "ArrivalStream",
    "FlashCrowd",
    "JobSpec",
    "GBPS",
    "gbit",
    "IterationResult",
    "feasible_on_link",
    "total_mean_load_gbps",
    "BOTTLENECK_GBPS",
    "DEFAULT_JITTER_SIGMA",
    "gpt3_job",
    "gpt2_job",
    "gpt2_fast_job",
    "gpt2_heavy_job",
    "four_job_scenario",
    "three_job_scenario",
    "six_job_scenario",
    "two_job_scenario",
    "identical_jobs",
    "cross_rack_job",
    "cross_rack_scenario",
    "PLACEMENT_POLICIES",
    "FabricSpec",
    "JobPlacement",
    "ecmp_index",
    "host_rack",
    "place_jobs",
    "PulseShape",
    "SQUARE",
    "DOUBLE_HUMP",
    "demand_trace",
    "save_scenario",
    "load_scenario",
]
