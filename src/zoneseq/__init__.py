"""Hierarchical last-mile route sequencing.

Learns zone-visit patterns from historical routes with a multi-component
PPM model, orders zones by rollout one-step lookahead, and orders stops
inside each zone with an asymmetric-TSP local search.
"""

from .core import (
    DEPOT_ZONE,
    Route,
    Stop,
    StopSequence,
    TravelTimeMatrix,
    ValidationError,
    haversine_m,
)
from .ingest import Dataset, load_dataset, zsgt
from .ppm import PpmModel, tokenize_zone, train
from .rollout import rollout_sequence
from .scorer import dataset_score, route_score
from .synth import SynthConfig, generate
from .tsp import sequence_stops, solve_atsp

__version__ = "0.1.0"
