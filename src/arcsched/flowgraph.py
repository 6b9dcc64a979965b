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

A network stores its arcs as two parallel arrays, ``tail`` and ``head``;
position i in them is arc i, and arc i is variable i of the model built
from the network. The arcs of one label lie in one run of positions:
label k >= 1 is job type k, label 0 a loss arc. The network carries the
job types its labels index and the machine count m, so it is the whole
model input: a type's arcs carry at most its multiplicity d, the loss
arcs at most m. The construction emits one arc order, job arcs by label
and tail, then loss arcs by tail (see ``FlowGraph``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain, compress, filterfalse, islice, repeat
from operator import add
from typing import NamedTuple, TextIO

from .instance import BYTES_PER, Instance, JobType, ModelSizeError, approx, check_bytes

LOSS = 0


class FlowGraph(NamedTuple):
    """Time points (0, T and every reachable t) and arcs as parallel unsigned arrays.

    Arc i runs from ``tail[i]`` to ``head[i]``. ``runs[k]`` is the range of
    the positions of label k, which ``arc`` bisects by tail: label k >= 1
    is job type ``types[k - 1]``, whose arcs carry at most its multiplicity
    d_k; LOSS labels the loss arcs, which carry at most the m machines.
    Arc order: job arcs by label, then by ascending tail; loss arcs last,
    by ascending tail (``labels`` names the runs in that order).
    """

    T: int
    nodes: tuple[int, ...]
    tail: array
    head: array
    m: int
    types: tuple[JobType, ...]
    runs: tuple[range, ...]

    @property
    def arcs(self) -> range:
        """Arc positions."""
        return range(len(self.tail))

    @property
    def labels(self) -> tuple[int, ...]:
        """The labels in arc order: job types 1..K, then LOSS."""
        return (*range(1, len(self.runs)), LOSS)

    def arc(self, tail: int, label: int) -> int | None:
        """Position of the arc labelled ``label`` that leaves ``tail``, or None."""
        run = self.runs[label]
        i = bisect_left(self.tail, tail, run.start, run.stop)
        return i if i < run.stop and self.tail[i] == tail else None


def build_eaf_graph(
    inst: Instance,
    T: int,
    types: list[JobType],
    type_windows: list[tuple[int, int]],
    t_prime: int,
    strict_figure: bool = False,
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
    path). Only reachable times are held, so memory follows the arcs, not T.
    ModelSizeError: T past 64 bits, or the nonzeros made and the jobs pass the budget.

    The straight per-job network is this construction with one type per
    job in WSPT order, windows [0, T - p_j] and ``t_prime=0``.
    """
    if T >= 2**64:  # tails and heads are held in arrays of at most 64 bits
        raise ModelSizeError(f"the horizon T = {approx(T)} is above 2^64 - 1")
    times = "I" if T < 2**32 else "Q"
    jobs = inst.n * BYTES_PER["flow job"]  # what the instance's jobs add to every check
    points, reached = [0], {0}  # the reachable times, ascending, and as a set
    tail, head = array(times), array(times)
    runs = []
    for tidx, (jt, (a, b)) in enumerate(zip(types, type_windows), start=1):
        p = jt.p
        last = min(b, T - p)  # the last start in the window that completes by T
        # every point this type adds lies after its start, so the window is read
        # as it stood before the type: a batch opens at each reachable time in it
        opens = points[bisect_left(points, a) : bisect_right(points, last)]
        starts: set[int] = set()
        for shift in range(0, jt.d * p, p):  # copy q of a batch starts (q - 1) p later
            starts.update(map(add, opens[: bisect_right(opens, last - shift)], repeat(shift)))
            nonzeros = 3 * (len(tail) + len(starts))  # a job arc is in two flow rows and its demand row
            check_bytes(nonzeros * BYTES_PER["flow nonzero"] + jobs,
                        f"the flow model reaches {approx(nonzeros)} nonzeros,")
        ordered = sorted(starts)
        heads = list(map(add, ordered, repeat(p)))
        if new := list(filterfalse(reached.__contains__, heads)):
            reached.update(new)
            points += new
            points.sort()  # two ascending runs, merged in one pass
        tail.extend(ordered)
        head.extend(heads)
        runs.append(range(len(tail) - len(ordered), len(tail)))
    loss_from = [] if strict_figure else [0]
    loss_from += points[bisect_left(points, max(t_prime, 1)) : bisect_left(points, T)]
    nonzeros = 3 * len(tail) + 2 * len(loss_from)  # a loss arc is in two flow rows
    check_bytes(nonzeros * BYTES_PER["flow nonzero"] + jobs, f"the flow model reaches {approx(nonzeros)} nonzeros,")
    tail.extend(loss_from)
    head.extend(repeat(T, len(loss_from)))
    runs.insert(LOSS, range(len(tail) - len(loss_from), len(tail)))
    nodes = points if points[-1] == T else [*points, T]
    return FlowGraph(
        T=T, nodes=tuple(nodes), tail=tail, head=head, m=inst.m, types=tuple(types), runs=tuple(runs),
    )


def reduction_pct(before: float, after: float) -> float:
    """Percentage of variables removed going from ``before`` to ``after``."""
    return 100.0 * (1.0 - after / before)


# lines per run of ``_runs``
_RUN_LINES = 128


def _runs(lines: Iterable[str], before: str = "", after: str = "") -> Iterator[str]:
    """``lines`` as runs of up to ``_RUN_LINES`` lines joined by newlines,
    each line put between ``before`` and ``after``."""
    lines = iter(lines)
    glue = after + "\n" + before
    while run := list(islice(lines, _RUN_LINES)):
        yield before + glue.join(run) + after


def _write_runs(fh: TextIO, runs: Iterable[str]) -> None:
    """Write each of ``runs`` and a newline to ``fh``, one write per run; the
    DOT writer and the LP and MPS writers of ``milp`` share it. A run is one
    or more lines joined by newlines, never empty (that would write a blank
    line), and bounded by its writer, so a write stays small."""
    for run in runs:
        fh.write(run + "\n")


def write_dot(g: FlowGraph, fh: TextIO) -> None:
    """Write deterministic DOT text in arc order, job arcs labeled and loss
    arcs dashed, to the open text file ``fh`` as it is made."""
    # the attribute text of each label (LOSS is 0), and each node's text as a
    # tail and as a head, so an arc line is two concatenations
    attrs = [" [style=dashed];"]
    for k, jt in enumerate(g.types, start=1):
        attrs.append(f' [label="j{k}"];' if jt.d == 1 else f' [label="j{k} (x{jt.d})"];')
    tails = {t: f"  {t} -> " for t in g.nodes}
    heads = {t: str(t) for t in g.nodes}
    nodes = map("  {};".format, g.nodes)
    arc_attrs = chain.from_iterable(repeat(attrs[k], len(g.runs[k])) for k in g.labels)
    arcs = map(add, map(tails.__getitem__, g.tail), map(add, map(heads.__getitem__, g.head), arc_attrs))
    _write_runs(fh, _runs(chain(("digraph flow {", "  rankdir=LR;"), nodes, arcs, ("}",))))


def decompose_flow(g: FlowGraph, flow: list[int]) -> list[list[int]]:
    """Split an integral flow of value m into m source-to-sink paths.

    ``flow[i]`` is the flow on arc i, and ``milp.check_feasible`` accepted
    it against the model built from ``g``: it holds one value per arc, each
    within the arc's capacity, and conserves flow at every node. Returns one
    job-id sequence per path. Each flow unit on a job arc consumes the
    smallest remaining member id of the arc's type. Demand is a lower bound,
    so a solution may cover a type more than d times: a unit beyond the
    type's multiplicity adds no job, and its machine idles over that arc.

    Paths are walked in arc order: at each node, job arcs by label before
    the loss arc. As arcs run forward in time, the residual flow stays a
    conserving flow without cycles, so a walk leaves every node before T
    that it enters, and the m walks use the flow up.
    """
    outgoing: dict[int, list[tuple[int, int]]] = {}  # (arc, label) per tail, in arc order
    for k in g.labels:
        run = g.runs[k]
        for i in compress(run, flow[run.start : run.stop]):
            outgoing.setdefault(g.tail[i], []).append((i, k))

    residual = list(flow)
    pools = [iter(t.members) for t in g.types]
    paths: list[list[int]] = []
    for _ in range(g.m):
        node = 0
        path: list[int] = []
        while node != g.T:
            i, k = next((i, k) for i, k in outgoing[node] if residual[i] > 0)
            residual[i] -= 1
            if k != LOSS:
                j = next(pools[k - 1], None)
                if j is not None:
                    path.append(j)
            node = g.head[i]
        paths.append(path)
    return paths
