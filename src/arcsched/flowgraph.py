"""Time-expanded flow networks for machine schedules.

A schedule of m identical machines is encoded as m paths from node 0 to
node T in a DAG over time points. Job arcs span exactly the processing
time of a job (or job type) and start-time reachability is restricted to
WSPT-compatible prefixes; loss arcs jump from a completion time straight
to T and absorb trailing idle time.

One construction serves both networks: the reduced network over job
types with start windows and a tightened loss-arc range [T', T). The
straight per-job network is its special case with one type per job,
full windows [0, T - p_j] and T' = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import Horizon
from .instance import Instance, JobType

LOSS = 0


class InfeasibleHorizonError(ValueError):
    """Horizon too small for the longest job."""


@dataclass(frozen=True)
class Arc:
    """tail < head; label is a job/type id for kind 'job', 0 for 'loss'."""

    tail: int
    head: int
    label: int
    kind: str
    capacity: int


@dataclass(frozen=True)
class FlowGraph:
    T: int
    nodes: tuple[int, ...]
    arcs: tuple[Arc, ...]

    def job_arcs(self) -> list[Arc]:
        return [a for a in self.arcs if a.kind == "job"]

    def loss_arcs(self) -> list[Arc]:
        return [a for a in self.arcs if a.kind == "loss"]


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    job_arc_count: int
    loss_arc_count: int
    variable_count: int


def normal_patterns(p_list: list[tuple[int, int]], T: int) -> list[int]:
    """Time points in {0..T} reachable as sums q_j * p_j with q_j <= mult_j.

    ``p_list`` holds (processing time, multiplicity) pairs. Forward boolean
    DP; 0 is always reachable.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    reachable = [False] * (T + 1)
    reachable[0] = True
    for p, mult in p_list:
        if p < 1 or mult < 1:
            raise ValueError(f"need p >= 1 and multiplicity >= 1, got ({p}, {mult})")
        for t in range(T - p, -1, -1):
            if not reachable[t]:
                continue
            for q in range(1, mult + 1):
                nxt = t + q * p
                if nxt > T or reachable[nxt]:
                    break
                reachable[nxt] = True
    return [t for t, ok in enumerate(reachable) if ok]


def build_eaf_graph(
    inst: Instance,
    hor: Horizon,
    types: list[JobType],
    type_windows: list[tuple[int, int]],
    strict_figure: bool = False,
    t_prime: int | None = None,
) -> FlowGraph:
    """Reduced network over job types with start windows.

    Types are scanned in WSPT order. From a reachable time t inside the
    window of type j, batches of q = 1..d_j consecutive copies are marked,
    as long as each copy starts within [a_j, b_j] and completes by T. The
    model arcs are the unit-length arcs (s, s + p_j) of capacity d_j, one
    per distinct valid copy start s.

    Loss arcs (t, T) exist for reachable t in [T', T) plus t = 0, which
    keeps a path for an idle machine; ``strict_figure`` always drops the
    t = 0 loss arc (the drawing convention in which an idle machine has no
    path). ``t_prime`` overrides ``hor.T_prime``.

    The straight per-job network is this construction with one type per
    job in WSPT order, windows [0, T - p_j] and ``t_prime=0``.
    """
    T = hor.T
    if T < inst.p_max:
        raise InfeasibleHorizonError(f"horizon T={T} is smaller than the longest job p={inst.p_max}")
    tp = hor.T_prime if t_prime is None else t_prime
    reachable = [False] * (T + 1)
    reachable[0] = True
    arcs: list[Arc] = []
    for tidx, (jt, (a, b)) in enumerate(zip(types, type_windows), start=1):
        p = jt.p
        starts: set[int] = set()
        for t in range(min(b, T - p), a - 1, -1):
            if not reachable[t]:
                continue
            for q in range(1, jt.d + 1):
                s = t + (q - 1) * p
                if s > b or s + p > T:
                    break
                reachable[s + p] = True
                starts.add(s)
        for s in sorted(starts):
            arcs.append(Arc(s, s + p, tidx, "job", jt.d))
    loss_from = [] if strict_figure else [0]
    loss_from += [t for t in range(max(tp, 1), T) if reachable[t]]
    for t in loss_from:
        arcs.append(Arc(t, T, LOSS, "loss", inst.m))
    nodes = sorted({t for t, ok in enumerate(reachable) if ok} | {0, T})
    return FlowGraph(T=T, nodes=tuple(nodes), arcs=tuple(arcs))


def graph_stats(g: FlowGraph) -> GraphStats:
    jobs = len(g.job_arcs())
    losses = len(g.loss_arcs())
    return GraphStats(
        node_count=len(g.nodes),
        job_arc_count=jobs,
        loss_arc_count=losses,
        variable_count=jobs + losses,
    )


def reduction_pct(before: float, after: float) -> float:
    """Percentage of variables removed going from ``before`` to ``after``."""
    return 100.0 * (1.0 - after / before)


def to_dot(g: FlowGraph) -> str:
    """Deterministic DOT text; job arcs labeled, loss arcs dashed."""
    lines = ["digraph flow {", "  rankdir=LR;"]
    for t in g.nodes:
        lines.append(f"  {t};")
    job_arcs = sorted(g.job_arcs(), key=lambda a: (a.label, a.tail))
    for a in job_arcs:
        label = f"j{a.label}" if a.capacity == 1 else f"j{a.label} (x{a.capacity})"
        lines.append(f'  {a.tail} -> {a.head} [label="{label}"];')
    for a in sorted(g.loss_arcs(), key=lambda a: a.tail):
        lines.append(f"  {a.tail} -> {a.head} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def decompose_flow(
    g: FlowGraph,
    flow: dict[Arc, int],
    m: int,
    types: list[JobType],
) -> list[list[int]]:
    """Split an integral flow of value m into m source-to-sink paths.

    Returns one job-id sequence per path. Arc labels are 1-based indices
    into ``types``; each flow unit consumes the smallest remaining member
    id of its type.

    Raises:
        ValueError: flow violates a capacity or node conservation.
    """
    arc_set = set(g.arcs)
    for arc, v in flow.items():
        if arc not in arc_set:
            raise ValueError(f"flow on unknown arc {arc}")
        if not (0 <= v <= arc.capacity):
            raise ValueError(f"flow {v} outside [0, {arc.capacity}] on {arc}")

    divergence: dict[int, int] = {t: 0 for t in g.nodes}
    for arc, v in flow.items():
        divergence[arc.tail] += v
        divergence[arc.head] -= v
    for t in g.nodes:
        want = m if t == 0 else -m if t == g.T else 0
        if divergence[t] != want:
            raise ValueError(f"flow does not conserve at node {t}: divergence {divergence[t]}, expected {want}")

    residual = {arc: v for arc, v in flow.items() if v > 0}
    # deterministic walk: job arcs before loss arcs, then by label and head
    outgoing: dict[int, list[Arc]] = {}
    for arc in residual:
        outgoing.setdefault(arc.tail, []).append(arc)
    for lst in outgoing.values():
        lst.sort(key=lambda a: (a.kind != "job", a.label, a.head))

    pools = {i: list(t.members) for i, t in enumerate(types, start=1)}

    paths: list[list[int]] = []
    for _ in range(m):
        node = 0
        path: list[int] = []
        while node != g.T:
            arc = next((a for a in outgoing.get(node, ()) if residual.get(a, 0) > 0), None)
            if arc is None:
                raise ValueError(f"walk stuck at node {node} with no residual out-arc")
            residual[arc] -= 1
            if arc.kind == "job":
                path.append(pools[arc.label].pop(0))
            node = arc.head
        paths.append(path)
    if any(v > 0 for v in residual.values()):
        raise ValueError("flow decomposition left residual flow behind")
    return paths
