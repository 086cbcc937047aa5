"""Sensing substrate: crowd-sourced building models, spatial index, POI
database."""

from .crowdmodel import BoxModel, Contribution, CrowdModel
from .poi import Poi, PoiDatabase
from .spatial import QuadTree, SpatialPoint

__all__ = [
    "BoxModel",
    "Contribution",
    "CrowdModel",
    "Poi",
    "PoiDatabase",
    "QuadTree",
    "SpatialPoint",
]
