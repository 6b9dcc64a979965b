import io
from array import array
from itertools import groupby

import pytest

from arcsched.bounds import horizon
from arcsched.flowgraph import LOSS, FlowGraph, build_eaf_graph
from arcsched.instance import Instance, make_instance, parse_instance, singleton_types
from arcsched.milp import Columns, MilpModel, Rows, VarBlock

DEMO_TEXT = "4 2\n2 4\n5 7\n1 1\n4 3\n"


def straight_network(inst: Instance, T: int | None = None, strict_figure: bool = False) -> FlowGraph:
    """The straight per-job network: the reduced network with every reduction off.

    One type per job in WSPT order, windows [0, T - p_j] and T' = 0, over
    the instance's horizon unless ``T`` is given. Arc labels are WSPT
    ranks; the graph's types map them back to job ids.
    """
    T = horizon(inst).T if T is None else T
    types = singleton_types(inst)
    windows = [(0, T - t.p) for t in types]
    return build_eaf_graph(inst, T, types, windows, 0, strict_figure=strict_figure)


def written(write, record) -> str:
    """The text ``write`` (``write_lp``, ``write_mps`` or ``write_dot``)
    makes for ``record``, written into an ``io.StringIO``."""
    out = io.StringIO()
    write(record, out)
    return out.getvalue()


def append_var(model: MilpModel, name: str, lb, ub, kind: str, obj=0) -> int:
    """Append a one-variable block named ``name`` to a hand-built ``model``;
    returns the variable's position. Nothing checks the name: keeping names
    distinct, and off the constant column ONE, is the caller's part. The
    block has no column rule: ``ruled`` gives the model one to write MPS,
    check a valuation or count the nonzeros."""
    model.blocks.append(VarBlock(kind, lb, ub, (obj,), lambda: (name,), None))
    return model.num_vars - 1


def add_row(model: MilpModel, name: str, cols, sense: str, rhs, coefs=None) -> None:
    """Append a one-row ``Rows`` block over variable positions ``cols`` to
    a hand-built ``model``; ``coefs`` None means every entry is 1. Its rule
    yields the elements of the sequence it is handed at the stored
    positions, and the stored coefficients. Nothing checks them: positions
    that strictly rise below the variable count, and nonzero 64-bit
    coefficients, one per position, are the caller's part."""
    cols, coefs = array("I", cols), None if coefs is None else array("q", coefs)
    model.rows.append(Rows([(name, sense, rhs)], lambda seq: ((map(seq.__getitem__, cols), coefs),)))


def transpose(model: MilpModel) -> list[list[tuple[int, int]]]:
    """The reference transpose of the rows: each column's (row position,
    coefficient) entries, in row order."""
    entries = [[] for _ in range(model.num_vars)]
    for r, c in enumerate(model.constraints):
        for i, k in c.terms:
            entries[i].append((r, k))
    return entries


def ruled(model: MilpModel) -> MilpModel:
    """A hand-built ``model`` with a column rule on every block, read from
    ``transpose``: the same rows, constant and variables, and each block
    split where its columns' entry count changes, since a rule gives a
    block's columns as many entries each; empty blocks are dropped. Neither
    changes the MPS text, the exact check's report or ``nonzeros()``."""
    entries = transpose(model)
    out = MilpModel(name=model.name)
    out.rows, out.obj_constant, out.quad_terms = model.rows, model.obj_constant, model.quad_terms
    start = 0
    for b in model.blocks:
        names = list(b.names())
        i = 0
        for count, same in groupby(map(len, entries[start : start + len(b)])):
            size = len(list(same))
            part = entries[start + i : start + i + size]
            slots = [([e[s][0] for e in part], [e[s][1] for e in part]) for s in range(count)]
            part_names = names[i : i + size]
            rule = Columns(max(map(len, part_names)), slots)
            block = VarBlock(b.kind, b.lb, b.ub, b.obj[i : i + size], lambda n=part_names: iter(n), lambda r=rule: r)
            out.blocks.append(block)
            i += size
        start += len(b)
    return out


def by_position(model, named: dict) -> list:
    """One value per variable of ``model``: ``named[name]`` on the named
    variables, 0 elsewhere. Every name must be one of the model's."""
    names = list(model.names())
    assert set(named) <= set(names), sorted(set(named) - set(names))
    return [named.get(name, 0) for name in names]


def arc_labels(g: FlowGraph) -> list[int]:
    """The label of each arc, in arc order, read from the runs that hold it."""
    labels = [-1] * len(g.arcs)
    for k, run in enumerate(g.runs):
        for i in run:
            labels[i] = k
    return labels


def reachable_points(g: FlowGraph) -> list[int]:
    """0 and the head of every job arc: the time points the construction reached."""
    return sorted({0, *(h for h, k in zip(g.head, arc_labels(g)) if k != LOSS)})


def straight_points(parts: list[int], T: int) -> list[int]:
    """Reachable points of the straight network over jobs of lengths ``parts``
    at horizon T. A part longer than T is in no sum <= T, so it is left out
    of the instance; with no part left the answer is [0]."""
    fitting = [(p, 1) for p in parts if p <= T]
    if not fitting:
        return [0]
    return reachable_points(straight_network(make_instance(1, fitting), T))


@pytest.fixture
def demo() -> Instance:
    """Four jobs, two machines: (p, w) = (2,4), (5,7), (1,1), (4,3)."""
    return parse_instance(DEMO_TEXT)


@pytest.fixture
def single_machine_triple() -> Instance:
    """Three identical jobs (p=2, w=5) on one machine."""
    return make_instance(1, [(2, 5), (2, 5), (2, 5)])
