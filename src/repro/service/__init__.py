"""Dissociation query service: concurrent scheduling + cross-query batching.

See ``README.md`` in this package for the architecture.
"""

from .batching import MicroBatcher, QueryRequest, ServiceOverloaded
from .faults import FaultInjector, FaultRule
from .resilience import (
    Deadline,
    RequestTimeout,
    RetryPolicy,
    ServiceClosed,
    WorkerCrashed,
    is_transient_error,
)
from .service import DissociationService

__all__ = [
    "Deadline",
    "DissociationService",
    "FaultInjector",
    "FaultRule",
    "MicroBatcher",
    "QueryRequest",
    "RequestTimeout",
    "RetryPolicy",
    "ServiceClosed",
    "ServiceOverloaded",
    "WorkerCrashed",
    "is_transient_error",
]
