"""Simulation and exact computation for generalized once-excited random
walks on rooted trees: closed-form ruin probabilities, the ruin-percolation
coupling, and the recurrence/transience phase transition driven by how fast
the tree grows."""

from .tree import (
    Tree,
    TreeFamily,
    build_path,
    build_regular,
    build_polynomial,
    build_from_edge_list,
    min_cutset_sum,
    min_level_cutset_sum,
    branching_ruin_estimate,
    path_family,
    regular_family,
    polynomial_family,
    read_tree_file,
    write_tree_file,
)

__version__ = "0.1.0"
