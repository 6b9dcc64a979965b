"""Toolkit for minimizing total weighted completion time on identical
parallel machines: flow-network and time-indexed MILP model generation,
variable-reduction preprocessing, an iterated-local-search heuristic, and
a brute-force oracle for desk-scale validation."""

from .bounds import Horizon, TimeWindows, h_bounds, horizon, horizon_T, horizon_Tprime, time_windows, type_time_windows
from .flowgraph import FlowGraph, build_eaf_graph, decompose_flow, to_dot, write_dot
from .heuristic import IlsConfig, IlsResult, ils
from .instance import (
    Instance,
    Job,
    JobType,
    Schedule,
    evaluate_schedule,
    generate_instance,
    group_job_types,
    make_instance,
    parse_instance,
    parse_schedule,
    write_instance,
    write_schedule,
    wspt_order,
)
from .milp import (
    MilpModel,
    build_ciqp,
    build_eaf_model,
    build_pti,
    build_ti,
    check_feasible,
    emit_lp,
    emit_mps,
    parse_solution,
    schedule_to_assignment,
    write_lp,
    write_mps,
)
from .oracle import OracleResult, brute_force_optimal
from .rng import SplitMix64

__version__ = "0.1.0"
