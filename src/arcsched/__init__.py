"""Toolkit for minimizing total weighted completion time on identical
parallel machines: flow-network and time-indexed MILP model generation,
variable-reduction preprocessing, an iterated-local-search heuristic, and
a brute-force oracle for desk-scale validation.

The package imports no layer: import names from its modules (instance,
bounds, flowgraph, milp, heuristic, oracle, rng, cli), so a program runs
only the layers it uses."""

__version__ = "0.1.0"
