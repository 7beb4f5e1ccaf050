"""Cl1ck-style HLAC synthesis: operation recognition, algorithms, database."""

from .algorithms import Synthesizer
from .database import AlgorithmDatabase, DatabaseEntry
from .operations import OperationInstance, recognize

__all__ = [
    "Synthesizer", "AlgorithmDatabase", "DatabaseEntry",
    "OperationInstance", "recognize",
]
