"""Exact combinatorial search toolkit for directed Ramsey numbers,
K_n-free witness constructions, balanced independent transversals, and
rational orthogonality graphs.

Callers import each name from its module, for example
``from transversal_lab.ramsey import search_dr``."""

__version__ = "0.1.0"

# the benchmark (perfbench/) reads these modules as attributes of the
# package: lib.ramsey, lib.transversal, lib.ortho, lib.canon,
# lib.constructions, lib.graphs and lib.errors
from . import canon, codec, constructions, embedding, errors, graphs, ortho, ramsey, transversal
