"""Exact Kazhdan-Lusztig data, W-graphs, balanced representations and the
asymptotic algebra for finite Coxeter groups with weight functions."""

from .coxeter import CoxeterDatum, Element, GroupEngine, build_group
from .kl import KLContext
from .laurent import LaurentMatrix, LaurentPoly, bar, format_laurent, parse_laurent
from .wgraph import Representation, WGraph, kl_wgraph, validate_wgraph

__all__ = [
    "CoxeterDatum",
    "Element",
    "GroupEngine",
    "KLContext",
    "LaurentMatrix",
    "LaurentPoly",
    "Representation",
    "WGraph",
    "bar",
    "build_group",
    "format_laurent",
    "kl_wgraph",
    "parse_laurent",
    "validate_wgraph",
]
