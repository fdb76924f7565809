"""Churn models and correlation policies."""

from repro.churn.correlated import (
    ArrivalAttributePolicy,
    CorrelatedArrivals,
    DeparturePolicy,
    DistributionArrivals,
    HighestAttributeDepartures,
    LowestAttributeDepartures,
    UniformDepartures,
)
from repro.churn.models import (
    BurstChurn,
    ChurnEvent,
    ChurnModel,
    NoChurn,
    RegularChurn,
    TraceChurn,
)

__all__ = [
    "ArrivalAttributePolicy",
    "CorrelatedArrivals",
    "DeparturePolicy",
    "DistributionArrivals",
    "HighestAttributeDepartures",
    "LowestAttributeDepartures",
    "UniformDepartures",
    "BurstChurn",
    "ChurnEvent",
    "ChurnModel",
    "NoChurn",
    "RegularChurn",
    "TraceChurn",
]
