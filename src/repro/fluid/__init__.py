"""Flow-level (fluid) simulator and bottleneck allocation policies."""

from .allocation import (
    AllocationPolicy,
    FairShare,
    FlowView,
    MLTCPWeighted,
    PDQ,
    PIAS,
    SRPT,
    water_fill,
    water_fill_array,
)
from .arrays import FlowArrays, link_index_matrix
from .fabric import place_on_fabric
from .network import (
    NetworkFluidResult,
    NetworkFluidSimulator,
    PlacedJob,
    run_network_fluid,
    weighted_max_min,
    weighted_max_min_array,
)
from .flowsim import (
    FluidResult,
    FluidSimulator,
    IterationResult,
    Phase,
    RateSegment,
    run_fluid,
)

__all__ = [
    "AllocationPolicy",
    "FairShare",
    "MLTCPWeighted",
    "SRPT",
    "PDQ",
    "PIAS",
    "FlowView",
    "water_fill",
    "water_fill_array",
    "FlowArrays",
    "link_index_matrix",
    "FluidSimulator",
    "FluidResult",
    "IterationResult",
    "RateSegment",
    "Phase",
    "run_fluid",
    "PlacedJob",
    "NetworkFluidSimulator",
    "NetworkFluidResult",
    "run_network_fluid",
    "weighted_max_min",
    "weighted_max_min_array",
    "place_on_fabric",
]
