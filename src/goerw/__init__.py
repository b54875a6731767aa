"""Simulation and exact computation for generalized once-excited random
walks on rooted trees: closed-form ruin probabilities, the ruin-percolation
coupling, and the recurrence/transience phase transition driven by how fast
the tree grows. The package exports no name of its own: import each from
its module (goerw.tree, goerw.environment, goerw.walk, ...)."""

__version__ = "0.1.0"
