"""Translation between binary block codes and XOR Cayley topologies.

An [n, k] generator matrix, read column by column, is a hop list: column s
becomes the d-bit hop h_s (d = k, m = n), with row 1 supplying bit 2**0.
Under this transposition the code's minimum distance equals the network's
normalized bisection, so published optimal codes become maximum-bisection
topologies directly.
"""
from __future__ import annotations

from . import gf2
from .codes import GeneratorMatrix
from .topology import CayleyTopology

__all__ = ["code_to_network", "network_to_code"]


def code_to_network(g: GeneratorMatrix) -> CayleyTopology:
    """Build the topology whose hops are the columns of g.

    The resulting graph has 2**k switches of topological degree n and
    bisection min_distance(g) * N/2 links.  Codes with repeated or zero
    columns (e.g. repetition codes, which correspond to trunked links)
    are rejected because they would need multi-edges or self-loops.
    """
    return CayleyTopology(d=g.k, hops=tuple(gf2.transpose(g.rows, g.n)))


def network_to_code(t: CayleyTopology) -> GeneratorMatrix:
    """Inverse of code_to_network; hops become columns in port order."""
    return GeneratorMatrix(k=t.d, n=t.m, rows=tuple(gf2.transpose(t.hops, t.d)))

