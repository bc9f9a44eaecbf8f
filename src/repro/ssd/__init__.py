"""Simulated SSD substrate: device model, FTL, profiles, filesystem."""

from .device import FluidPipeline, SsdDevice
from .filesystem import IoBackend, OutOfSpace, RawBackend, SimFile, SimFilesystem
from .ftl import Ftl, GcMove, WritePlan
from .ftl_policy import (
    FTL_POLICIES,
    CostBenefitGcPolicy,
    FtlPolicy,
    GreedyGcPolicy,
    HotColdPolicy,
    make_ftl_policy,
)
from .profiles import (
    PROFILES,
    SsdProfile,
    get_profile,
    intel320,
    nvme,
    oczvector,
    samsung840,
)
from .stats import SsdStats
from .surrogate import SurrogateDevice, SurrogateModel, fit_surrogate

__all__ = [
    "CostBenefitGcPolicy",
    "FTL_POLICIES",
    "FluidPipeline",
    "Ftl",
    "FtlPolicy",
    "GcMove",
    "GreedyGcPolicy",
    "HotColdPolicy",
    "IoBackend",
    "OutOfSpace",
    "PROFILES",
    "RawBackend",
    "SimFile",
    "SimFilesystem",
    "SsdDevice",
    "SsdProfile",
    "SsdStats",
    "SurrogateDevice",
    "SurrogateModel",
    "WritePlan",
    "fit_surrogate",
    "get_profile",
    "intel320",
    "make_ftl_policy",
    "nvme",
    "oczvector",
    "samsung840",
]
