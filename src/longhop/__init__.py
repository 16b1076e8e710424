"""Maximum-bisection Cayley network topologies from linear binary codes.

The package turns generator matrices of [n, k] codes over GF(2) into
XOR Cayley graphs whose normalized bisection equals the code's minimum
distance, computes exact bisections from Walsh spectra, builds
edge-disjoint multipath routes and forwarding tables, and compares the
resulting networks against hypercube, folded-cube and fat-tree cost
models at equal ports and radix.
"""
from .codes import GeneratorMatrix, encode, min_distance, parse_generator, emit_generator
from .compare import ComparisonRow, model_fc, model_ft, model_hc, model_lh
from .construct import code_to_network, network_to_code
from .gf2 import fwht
from .optimize import SearchReport, brute_force_search, greedy_improve
from .routing import (
    ForwardingTable,
    Unroutable,
    disjoint_paths,
    forwarding_table,
    shortest_paths,
    simulate_forwarding,
)
from .topology import (
    Bisection,
    CayleyTopology,
    Clustering,
    bisection_bruteforce,
    bisection_fwht,
    bisection_scan,
    build,
    cluster,
    cut_walsh,
    distances,
    emit_hopset,
    parse_hopset,
)

__version__ = "0.1.0"
