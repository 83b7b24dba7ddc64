"""Deterministic simulator and verification harness for pattern formation by
coloured agents on a block-partitioned ring."""

from .core import (
    Agent,
    Configuration,
    Instance,
    InstanceFormatError,
    ProblemKind,
    RequirementSpec,
    ValidityReport,
    parse_instance,
    serialize_instance,
    validate,
)
from .engine import RunResult, execute_round, orient_roles, run, target_satisfied

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Configuration",
    "Instance",
    "InstanceFormatError",
    "ProblemKind",
    "RequirementSpec",
    "RunResult",
    "ValidityReport",
    "execute_round",
    "orient_roles",
    "parse_instance",
    "run",
    "serialize_instance",
    "target_satisfied",
    "validate",
    "__version__",
]
