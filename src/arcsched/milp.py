"""Solver-agnostic MILP records for the five formulations, plus emission.

Models are plain records of variables, linear constraints and a linear
(optionally quadratic) objective with exact rational coefficients.
Variables are held as column blocks: a run of positions with one kind,
one pair of bounds, an objective coefficient per variable, one name rule
and one column rule, so no name is stored; names are made only by the
writers, the violation messages and the solution lookup. Rows and
quadratic terms refer to variables by position, and a valuation is one
value per position, so the schedule mapping, the exact check and the
decode read no name. Rows are held as blocks too, and ``Rows`` is the one
kind: each row's head (name, sense, rhs) is made at build time, and its
entries are stated by a rule over the sequence it is handed: the LP
writer hands it the names, so a row is its names, sliced, and
``MilpModel.constraints`` the positions. The MPS writer, the exact check
and ``nonzeros()`` read the heads and the column rules. Rows hold strictly
rising positions and nonzero coefficients: the builders make them so,
tests hold them to it and to the column rules, and ``validate`` reads only
the records.
Models are streamed to a file as LP or MPS text and never solved
in-process; an external solver can be driven through the CLI. The writers
make the text as runs of lines (``flowgraph._write_runs``), each built by
map, join and str.replace calls over a whole run, not line by line. The MPS
writer never transposes the rows: each block's column rule gives every
column's row entries, a fixed number per column in rising row order, and
its widest name, as the builder laid the rows out. A test holds every
builder's rule to the transpose of its rows.

Formulations
------------
ti    binaries x_{j}_{t}: job j starts at time t; ``ti_offsets`` gives
      their positions.
ciqp  binaries x_{j}_{k}: job j runs on machine k; quadratic objective
      from the WSPT completion-time recursion.
pti   continuous x_{j}_{k}_{t}: unit parts of j finished at t on k, plus
      assignment binaries y_{j}_{k}.
eaf   integer variables per type arc of the reduced network, bounded by
      the type multiplicity, plus integer loss variables L_{q}. The
      straight network ``af`` is built by the same code with every
      reduction off (one type per job, full windows, T' = 0).

Objective constants (the sum of w_j * p_j terms) are carried on the model
record; emission realizes them through an auxiliary variable ONE fixed to
1, so solver-reported objectives equal the true total weighted completion
time.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import add, itemgetter, mul, truth
from typing import NamedTuple, TextIO

from .flowgraph import _RUN_LINES, LOSS, FlowGraph, _runs, _write_runs, decompose_flow
from .instance import (
    BYTES_PER,
    Instance,
    ModelSizeError,
    Schedule,
    ValidationError,
    _excerpt,
    approx,
    check_bytes,
    completion_times,
    sort_machine_wspt,
)

Num = int | Fraction

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"


class MappingError(ValueError):
    """Schedule uses a start time with no corresponding model variable."""


class UnsupportedFormatError(ValueError):
    """Requested emission format cannot represent the model."""


class Columns(NamedTuple):
    """A block's columns, made by its column rule when the block is written
    as MPS, checked or counted.

    ``width`` is the length of the block's widest name (0 when it has
    none). ``slots`` holds every column's row entries, one slot per entry
    in rising row order, so each column of a block has as many entries as
    the block has slots: slot s is (rows, coefs), where ``rows`` gives each
    column's s-th row position, in column order, and ``coefs`` its
    coefficient, one int for every column or an iterable of one per column.
    """

    width: int
    slots: list[tuple[Iterable[int], int | Iterable[int]]]


class VarBlock:
    """Variables at consecutive positions that share a kind and bounds.

    ``obj[i]`` is the objective coefficient of the block's i-th variable,
    so ``len(obj)`` is the block's size. ``names()`` makes the block's
    names in order from its name rule, and ``columns()`` its ``Columns``
    from its column rule: no name and no column is stored.
    """

    def __init__(
        self,
        kind: str,
        lb: Num,
        ub: Num | None,
        obj: Sequence[Num],
        names: Callable[[], Iterable[str]],
        columns: Callable[[], Columns],
    ):
        self.kind = kind
        self.lb = lb
        self.ub = ub
        self.obj = obj
        self.names = names
        self.columns = columns

    def __len__(self) -> int:
        return len(self.obj)


Head = tuple[str, str, Num]  # a row's name, sense (one of <=, =, >=) and rhs
Entries = tuple[Iterable, array | None]  # a row's elements of the sequence read, and its coefs


class Rows(NamedTuple):
    """Consecutive rows whose entries their builder states by rule.

    ``heads`` holds each row's (name, sense, rhs), made at build time.
    ``entries(seq)`` yields each row's ``seq[i]`` for its positions i (a
    slice where they run consecutively) and its coefs, in row order.
    """

    heads: list[Head]
    entries: Callable[[Sequence], Iterable[Entries]]


class Constraint(NamedTuple):
    """One linear row: entry ``coefs[i]`` on the variable at position ``cols[i]``.

    ``cols`` holds unsigned 32-bit positions in strictly rising order;
    ``coefs`` holds nonzero integers, or is None when every entry is 1.
    ``MilpModel.constraints`` makes each one from a ``Rows`` block.
    """

    name: str
    sense: str
    rhs: Num
    cols: array
    coefs: array | None = None

    @property
    def terms(self) -> list[tuple[int, int]]:
        """(variable position, coefficient) per stored entry."""
        return list(zip(self.cols, repeat(1) if self.coefs is None else self.coefs))


class MilpModel:
    def __init__(self, name: str):
        self.name = name
        self.blocks: list[VarBlock] = []  # variables, in position order
        self.rows: list[Rows] = []  # blocks of rows, in row order
        self.obj_constant: Num = 0
        self.quad_terms: list[tuple[int, int, Num]] = []  # positions and coefficient

    @property
    def num_vars(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def num_rows(self) -> int:
        return sum(len(block.heads) for block in self.rows)

    def names(self) -> Iterator[str]:
        """Every variable name, in position order, made from the block rules."""
        return chain.from_iterable(b.names() for b in self.blocks)

    def heads(self) -> Iterator[Head]:
        """Every row's (name, sense, rhs), in row order: no entry is made."""
        return chain.from_iterable(block.heads for block in self.rows)

    @property
    def constraints(self) -> Iterator[Constraint]:
        """Every row with its entries, made by the row rules over the
        positions as it is read and not kept; no writer reads it."""
        pos = array("I", range(self.num_vars))
        rows = chain.from_iterable(zip(b.heads, b.entries(pos), strict=True) for b in self.rows)
        return (Constraint(*head, array("I", cols), coefs) for head, (cols, coefs) in rows)

    def nonzeros(self) -> int:
        """The column rules' entry counts plus quadratic objective terms."""
        return sum(len(b) * len(b.columns().slots) for b in self.blocks) + len(self.quad_terms)

    def validate(self) -> "MilpModel":
        """The model, once each block's bounds are ordered and each row's sense
        is known. It reads the records, never a rule's entries: that those
        rise, are below ``num_vars`` and are nonzero is the builders' part.

        Raises:
            ValidationError: naming the variable or row at fault.
        """
        for b in self.blocks:
            if b.ub is not None and b.lb > b.ub:
                raise ValidationError(f"variable {next(iter(b.names()))}: lb {b.lb} > ub {b.ub}")
        for name, sense, _ in self.heads():
            if sense not in ("<=", "=", ">="):
                raise ValidationError(f"constraint {name}: bad sense {sense!r}")
        return self


# ---------------------------------------------------------------------------
# builders


def ti_offsets(inst: Instance, T: int) -> list[int]:
    """Layout of a ti model: x_{j}_{t} sits at ``offsets[j - 1] + t`` for
    t = 0..T-p_j, and ``offsets[-1]`` is the variable count."""
    return list(accumulate((T - job.p + 1 for job in inst.jobs), initial=0))


def build_ti(inst: Instance, T: int) -> MilpModel:
    """Time-indexed model: start binaries over t = 0..T-p_j, laid out by ``ti_offsets``.

    Objective sum of w_j * t * x_{j}_{t} plus the constant sum of w_j p_j;
    one assignment constraint per job and one machine-capacity constraint
    per time slot t = 0..T-1.
    """
    nonzeros = sum((j.p + 1) * (T - j.p + 1) for j in inst.jobs)  # x_{j}_{t} is in 1 assign and p_j cap rows
    need = nonzeros * BYTES_PER["ti nonzero"] + (inst.n + T) * BYTES_PER["ti row"]
    check_bytes(need, f"form ti model may hold {approx(nonzeros)} nonzeros,")
    model = MilpModel(name=f"ti_n{inst.n}_m{inst.m}")
    offsets = ti_offsets(inst, T)
    n = inst.n
    for r, job in enumerate(inst.jobs):  # one block per job, t = 0..T-p_j
        size = T - job.p + 1
        names = lambda j=job.id, size=size: (f"x_{j}_{t}" for t in range(size))
        # x_{j}_{t} is in assign_j, the r-th row, then in cap_t .. cap_{t+p_j-1}, rows n + t on
        columns = lambda j=job.id, r=r, p=job.p, size=size: Columns(
            len(f"x_{j}_{size - 1}"), [(repeat(r, size), 1), *((range(n + s, n + s + size), 1) for s in range(p))]
        )
        model.blocks.append(VarBlock(BINARY, 0, 1, range(0, job.w * size, job.w), names, columns))
    model.obj_constant = sum(j.w * j.p for j in inst.jobs)

    def entries(seq: Sequence) -> Iterator[Entries]:
        for base, end in zip(offsets, offsets[1:]):
            yield seq[base:end], None
        for t in range(0, T):
            cols = seq[:0]
            for job, base in zip(inst.jobs, offsets):  # x_{j}_{s} for s = t - p_j + 1 .. t in its block
                cols += seq[base + max(0, t + 1 - job.p) : base + min(t, T - job.p) + 1]
            yield cols, None

    heads = [(f"assign_{job.id}", "=", 1) for job in inst.jobs] + [(f"cap_{t}", "<=", inst.m) for t in range(T)]
    model.rows.append(Rows(heads, entries))
    return model.validate()


def build_ciqp(inst: Instance) -> MilpModel:
    """Assignment binaries with a quadratic completion-time objective.

    On each machine jobs run in WSPT order, so job j's completion time is
    p_j plus the processing of earlier-ordered jobs sharing its machine.
    With x^2 = x for binaries the objective expands to linear terms
    w_j p_j x_{j}_{k} plus bilinear terms w_j p_i x_{i}_{k} x_{j}_{k} over
    ordered pairs i before j. A schedule uses at most n machines, and they
    can be relabelled, so the model has min(m, n) machines.
    """
    n, m = inst.n, min(inst.m, inst.n)
    nonzeros = n * m + m * n * (n - 1) // 2  # assignment entries and quadratic terms
    check_bytes(nonzeros * BYTES_PER["ciqp nonzero"], f"form ciqp model may hold {approx(nonzeros)} nonzeros,")
    model = MilpModel(name=f"ciqp_n{n}_m{m}")
    # x_{j}_{k} sits at position (j - 1) * m + k - 1, in job j's block
    for job in inst.jobs:
        names = lambda j=job.id: (f"x_{j}_{k}" for k in range(1, m + 1))
        columns = lambda j=job.id: Columns(len(f"x_{j}_{m}"), [(repeat(j - 1, m), 1)])  # row assign_j
        model.blocks.append(VarBlock(BINARY, 0, 1, [job.w * job.p] * m, names, columns))
    order = inst.wspt_ids
    for pos, j in enumerate(order):
        wj = inst.job(j).w
        for i in order[:pos]:
            pi = inst.job(i).p
            for k in range(m):
                model.quad_terms.append(((i - 1) * m + k, (j - 1) * m + k, wj * pi))
    entries = lambda seq: ((seq[(job.id - 1) * m : job.id * m], None) for job in inst.jobs)
    model.rows.append(Rows([(f"assign_{job.id}", "=", 1) for job in inst.jobs], entries))
    return model.validate()


def build_pti(inst: Instance, T: int) -> MilpModel:
    """Preemption-shaped model over unit parts finished at t = 1..T.

    The objective prices a unit part of job j finished at t at
    (w_j / p_j) * (t + (p_j - 1) / 2) = w_j (2t + p_j - 1) / (2 p_j), made
    as one exact fraction each; linking
    constraints force all p_j parts onto the machine chosen by y_{j}_{k}.
    Like ``build_ciqp``, the model has min(m, n) machines.
    """
    n, m = inst.n, min(inst.m, inst.n)
    nonzeros = n * m * (2 * T + 2)  # n m parts rows of T + 1, n m T capacity and n m assign entries
    check_bytes(nonzeros * BYTES_PER["pti nonzero"], f"form pti model may hold {approx(nonzeros)} nonzeros,")
    model = MilpModel(name=f"pti_n{n}_m{m}")
    # x_{j}_{k}_{t} sits at ((j - 1) * m + k - 1) * T + t - 1, in job j's
    # block, and y_{j}_{k} at ys + (j - 1) * m + k - 1; the rows are
    # parts_{j}_{k} at (j - 1) * m + k - 1, then cap_{k}_{t} at
    # caps + (k - 1) * T + t - 1, then assign_{j} at assigns + j - 1
    caps, assigns = n * m, n * m + m * T
    for job in inst.jobs:  # the T coefficients of a job repeat on each machine
        coefs = [Fraction(job.w * (2 * t + job.p - 1), 2 * job.p) for t in range(1, T + 1)]
        names = lambda j=job.id: (f"x_{j}_{k}_{t}" for k in range(1, m + 1) for t in range(1, T + 1))
        columns = lambda j=job.id: Columns(
            len(f"x_{j}_{m}_{T}"),
            [(chain.from_iterable(map(repeat, range((j - 1) * m, j * m), repeat(T))), 1), (range(caps, assigns), 1)],
        )
        model.blocks.append(VarBlock(CONTINUOUS, 0, None, coefs * m, names, columns))
    ys = model.num_vars
    names = lambda: (f"y_{job.id}_{k}" for job in inst.jobs for k in range(1, m + 1))
    columns = lambda: Columns(
        len(f"y_{n}_{m}"),
        [
            (range(caps), [-job.p for job in inst.jobs for _ in range(m)]),
            (chain.from_iterable(map(repeat, range(assigns, assigns + n), repeat(m))), 1),
        ],
    )
    model.blocks.append(VarBlock(BINARY, 0, 1, [0] * (n * m), names, columns))

    def entries(seq: Sequence) -> Iterator[Entries]:
        for job in inst.jobs:
            coefs = array("q", [*repeat(1, T), -job.p])
            for k in range(1, m + 1):
                base = ((job.id - 1) * m + k - 1) * T
                cols = seq[base : base + T]
                cols.append(seq[ys + (job.id - 1) * m + k - 1])
                yield cols, coefs
        for k in range(1, m + 1):
            for t in range(1, T + 1):
                yield seq[(k - 1) * T + t - 1 : ys : m * T], None
        for base in range(ys, ys + n * m, m):
            yield seq[base : base + m], None

    heads = [(f"parts_{job.id}_{k}", "=", 0) for job in inst.jobs for k in range(1, m + 1)]
    heads += [(f"cap_{k}_{t}", "<=", 1) for k in range(1, m + 1) for t in range(1, T + 1)]
    heads += [(f"assign_{job.id}", "=", 1) for job in inst.jobs]
    model.rows.append(Rows(heads, entries))
    return model.validate()


def build_eaf_model(g: FlowGraph) -> MilpModel:
    """Reduced network model: integer per type arc, demand d per type.

    Variable i is arc i of the network, named x_{tail}_{head}_{label} or,
    for a loss arc, L_{tail}; each label's run ``g.runs[k]`` is a block of
    upper bound d_k (m at LOSS), its names read from the graph arrays, and
    a type's run is its demand row. The objective constant counts every
    scheduled copy, i.e. the sum of d * w * p over the network's types; the
    flow value is m. A coefficient w t past 2^63 - 1 raises ModelSizeError.
    """
    types, m = g.types, g.m
    for k, jt in enumerate(types, start=1):
        last = g.tail[g.runs[k][-1]] if g.runs[k] else 0  # a run's tails rise: its largest w t is w last
        if jt.w * last > 2**63 - 1:
            raise ModelSizeError(f"type {k}: the objective coefficient w t = {jt.w} * {last} is above 2^63 - 1")
    model = MilpModel(name=f"eaf_t{len(types)}_m{m}")
    # names are joined from "_t" and "x_t", the texts of each node t, made once
    stems = {t: f"_{t}" for t in g.nodes}
    xstems = {t: f"x_{t}" for t in g.nodes}
    row_of = {q: r for r, q in enumerate(g.nodes)}  # the row of each node, by its time
    tails, heads = memoryview(g.tail), memoryview(g.head)  # a rule's slices copy no arc
    for k in g.labels:
        start, end = g.runs[k].start, g.runs[k].stop
        # an arc's column is flow_tail +1, flow_head -1, then demand_k +1 on a job arc;
        # a run's tails and heads rise, so its last name is its widest
        if k == LOSS:
            names = lambda s=start, e=end: map("L".__add__, map(stems.__getitem__, g.tail[s:e]))
            columns = lambda s=start, e=end: Columns(
                len(f"L_{tails[e - 1]}") if e > s else 0,
                [(map(row_of.__getitem__, tails[s:e]), 1), (repeat(len(g.nodes) - 1, e - s), -1)],
            )
            ub, obj = m, array("q", [0]) * (end - start)
        else:
            names = lambda s=start, e=end, k=k: map(
                add,
                map(xstems.__getitem__, g.tail[s:e]),
                map(add, map(stems.__getitem__, g.head[s:e]), repeat(f"_{k}")),
            )
            columns = lambda s=start, e=end, k=k: Columns(
                len(f"x_{tails[e - 1]}_{heads[e - 1]}_{k}") if e > s else 0,
                [
                    (map(row_of.__getitem__, tails[s:e]), 1),
                    (map(row_of.__getitem__, heads[s:e]), -1),
                    (repeat(len(g.nodes) + k - 1, e - s), 1),
                ],
            )
            ub, obj = types[k - 1].d, array("q", map(mul, g.tail[start:end], repeat(types[k - 1].w)))
        model.blocks.append(VarBlock(INTEGER, 0, ub, obj, names, columns))
    model.obj_constant = sum(t.d * t.w * t.p for t in types)

    def entries(seq: Sequence) -> Iterator[Entries]:
        # a node's flow row is +1 on each arc that leaves it, -1 on each that enters it;
        # rows keep positions and read their elements of seq only as each is yielded, so
        # no element is held per entry (that raised the LP write's peak memory)
        flow_cols = [array("I") for _ in g.nodes]
        flow_coefs = [array("q") for _ in g.nodes]
        for i, (tail, head) in enumerate(zip(g.tail, g.head)):
            out, into = row_of[tail], row_of[head]
            flow_cols[out].append(i)
            flow_coefs[out].append(1)
            flow_cols[into].append(i)
            flow_coefs[into].append(-1)
        yield from ((map(seq.__getitem__, cols), coefs) for cols, coefs in zip(flow_cols, flow_coefs))
        for k in range(1, len(types) + 1):  # a type's demand row is its run
            yield seq[g.runs[k].start : g.runs[k].stop], None

    row_heads = [(f"flow_{q}", "=", m if q == 0 else -m if q == g.T else 0) for q in g.nodes]
    row_heads += [(f"demand_{k}", ">=", jt.d) for k, jt in enumerate(types, start=1)]
    model.rows.append(Rows(row_heads, entries))
    return model.validate()


# ---------------------------------------------------------------------------
# emission

_ONE = "ONE"  # the name of the column that carries the objective constant


def _fmt_num(x: Num) -> str:
    if isinstance(x, int):
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        # terminating decimal
        k = max(twos, fives)
        scaled = abs(x.numerator) * 10**k // x.denominator
        digits = str(scaled).rjust(k + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{digits[:-k]}.{digits[-k:]}" if k else f"{sign}{digits}"
    return format(float(x), ".15g")


# parts joined per slice of ``_wrap``: a few lines' worth, never a whole row
_WRAP_PARTS = 1024


@cache
def _line_pattern(room: int) -> re.Pattern:
    """One line of parts joined by NULs, at most ``room`` characters: the
    longest run of whole parts that fits, or one part alone that does not;
    the NUL after it, which ends every line, is consumed."""
    return re.compile(rf"(.{{1,{room}}}|[^\0]+)\0", re.S)


def _wrap(parts: Iterable[str], indent: str = "   ", width: int = 72, end: str = "", sep: str = "\0") -> Iterator[str]:
    r"""Greedy fill of ``parts``, one space apart, into lines of at most
    ``width`` columns; a part that would overflow opens a line at ``indent``.
    ``end`` is appended to the last line. ``sep`` is a NUL and the text
    each part after the first starts with: "\0+ " signs bare names.

    Yields runs of lines (see ``flowgraph._write_runs``). Parts are joined
    by ``sep`` a slice at a time, and the slice is cut into lines by one
    pattern scan; its finished lines are one run, and the open last line is
    carried into the next slice. No part holds a newline or a NUL. A slice
    ends in a NUL, so each line ends at one and the scan backs up to the
    literal; one replace makes the NULs left between parts spaces.
    """
    parts = iter(parts)
    carry = ""  # the open line, with its indent and its spaces
    while chunk := list(islice(parts, _WRAP_PARTS)):
        text = (sep.join(chunk) if not carry else carry + sep + sep.join(chunk)) + "\0"
        # the open line holds its indent already, so it is cut at the full width
        first = _line_pattern(width).match(text)
        if first.end() == len(text):
            carry = first[1].replace("\0", " ")
            continue
        *lines, last = _line_pattern(width - len(indent)).findall(text, first.end())
        yield ("\n" + indent).join([first[1], *lines]).replace("\0", " ")
        carry = indent + last.replace("\0", " ")
    if carry:
        yield carry + end


def _sign(k: Num) -> str:
    """The LP text before a variable's name for the nonzero coefficient ``k``."""
    if k == 1:
        return "+ "
    if k == -1:
        return "- "
    return f"+ {_fmt_num(k)} " if k > 0 else f"- {_fmt_num(-k)} "


def _signed(coefs: Sequence[Num], names: Iterable[str]) -> Iterator[str]:
    """LP text of each nonzero ``coefs[k]`` on the k-th of ``names``: its
    ``_sign`` text, then the name."""
    whole = isinstance(coefs, (array, range))
    if 0 in coefs:
        names, coefs = compress(names, coefs), list(filter(None, coefs))
    if not whole:  # a list or tuple may hold Fractions, which hash slowly
        return map(add, map(_sign, coefs), names)
    if min(coefs, default=2) >= 2:  # as the flow and ti objectives are
        # an f-string per term: str.format parses its template on every call,
        # and a map over it measured slower than this
        return (f"+ {k} {name}" for k, name in zip(coefs, names))
    sign = {k: _sign(k) for k in set(coefs)}  # a row holds few distinct coefficients
    return map(add, map(sign.__getitem__, coefs), names)


def _sum_lines(lead: str, parts: Iterable[str], end: str = "", sep: str = "\0") -> Iterator[str]:
    r"""``lead`` and the wrapped ``parts`` (``_wrap``), the first without its
    plus sign, then ``end``; "0" when there are none. The parts are signed
    terms, or, with ``sep`` "\0+ ", the bare names of a row of ones."""
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        return iter((lead + "0" + end,))
    # the first part's text is its own sign, or the one ``sep`` would give it
    return _wrap(chain((lead + (sep[1:] + first).removeprefix("+ "),), parts), end=end, sep=sep)


def _with_constant(model: MilpModel) -> list[VarBlock]:
    """The model's blocks that hold a variable, with ONE appended when there
    is a constant. An empty block would open a section, or a pair of
    integrality markers, with no line in it."""
    blocks = [b for b in model.blocks if len(b)]
    if model.obj_constant != 0:
        one = VarBlock(CONTINUOUS, 1, 1, (model.obj_constant,), lambda: (_ONE,), lambda: Columns(len(_ONE), []))
        blocks.append(one)
    return blocks


def _lp_bound(b: VarBlock) -> tuple[str, str] | None:
    """Text before and after a name in the Bounds line of each variable of
    ``b``; None when its variables need no line."""
    if b.kind == BINARY:
        return None
    if b.ub is not None and b.lb == b.ub:
        return " ", f" = {_fmt_num(b.lb)}"
    if b.ub is None:
        return (" ", f" >= {_fmt_num(b.lb)}") if b.lb != 0 else None
    return f" {_fmt_num(b.lb)} <= ", f" <= {_fmt_num(b.ub)}"


def _lp_runs(model: MilpModel) -> Iterator[str]:
    """The LP text as runs of lines. Each variable's name is made once; the
    row rules read a row's names from that list, with no lookup by position
    for a slice, and the row is signed and wrapped at 72 columns."""
    blocks = _with_constant(model)
    names = list(chain.from_iterable(b.names() for b in blocks))
    edges = list(accumulate(map(len, blocks), initial=0))
    spans = list(zip(blocks, edges, edges[1:]))  # the names of a block are names[s:e]
    yield f"\\ {model.name}\nMinimize"
    yield from _sum_lines(" obj: ", chain.from_iterable(_signed(b.obj, names[s:e]) for b, s, e in spans))
    if model.quad_terms:
        quad = (
            f"{'+' if 2 * coef > 0 else '-'} {_fmt_num(abs(2 * coef))} {names[a]} * {names[b]}"
            for a, b, coef in model.quad_terms
        )
        yield from _wrap(chain(("   + [", next(quad).removeprefix("+ ")), quad, ("] / 2",)))
    yield "Subject To"
    for block in model.rows:
        for (name, sense, rhs), (row, coefs) in zip(block.heads, block.entries(names), strict=True):
            parts, sep = (row, "\0+ ") if coefs is None else (_signed(coefs, row), "\0")
            yield from _sum_lines(f" {name}: ", parts, f" {sense} {_fmt_num(rhs)}", sep)
    bounded = [(rule, s, e) for b, s, e in spans if (rule := _lp_bound(b))]
    if bounded:
        yield "Bounds"
        for (before, after), s, e in bounded:
            yield from _runs(names[s:e], before, after)
    for title, kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        listed = chain.from_iterable(names[s:e] for b, s, e in spans if b.kind == kind)
        first = next(listed, None)
        if first is not None:
            yield title
            yield from _wrap(chain((" " + first,), listed), indent="  ")
    yield "End"


def write_lp(model: MilpModel, fh: TextIO) -> None:
    """Write CPLEX-LP-style text, deterministic for a given validated model
    record, to the open text file ``fh`` as it is made: the whole text is
    never held in memory."""
    _write_runs(fh, _lp_runs(model))


def _field(x: Num) -> str:
    """An MPS value field: the number padded to 14."""
    return f"{_fmt_num(x):<14}"


# columns per COLUMNS run: a run makes one iterable per entry of a column,
# so a run of fewer columns than this costs more per column where columns
# have many entries (ti: 52 entries each, 4 columns in 128 lines doubled the
# time of its MPS text)
_RUN_COLUMNS = 64


def _column_runs(
    blocks: list[VarBlock], rules: list[Columns], rows: list[str], w_name: int, w_row: int
) -> Iterator[str]:
    """The COLUMNS lines of the variables of ``blocks``, whose ``Columns``
    are ``rules``, integrality markers included, as runs of up to
    ``_RUN_COLUMNS`` columns of one block; ``rows`` are the row names.

    A column's entries are its COST entry, when its cost is not zero or it
    is in no row, then its row entries; a line is the column's name and two
    entries, padding cut, and an odd column's last line holds one entry.
    The consecutive columns of a block with the same COST rule have one
    layout, so a run of them is one join over the texts of their fields,
    each row entry read from its slot: an entry of one coefficient k is
    the padded "row value" text of its row from a table per k and row.
    """
    padded = [f"{name:<{w_row}}" for name in rows]

    @cache
    def table(k: int, last: bool) -> list[str]:  # the entry text of k in each row; a last one has no padding
        return list(map(add, padded, repeat(_fmt_num(k) if last else _field(k))))

    cost = f"{'COST':<{w_row}}"
    marker = 0
    inside = False  # between an INTORG and its INTEND marker
    for b, rule in zip(blocks, rules):
        integer = b.kind in (BINARY, INTEGER)
        if integer != inside:
            yield f"    MARKER{marker:<{w_name - 6}}'MARKER'                 '{'INTORG' if integer else 'INTEND'}'"
            marker += 1
            inside = integer
        names, objs = iter(b.names()), iter(b.obj)
        fmt = str if isinstance(b.obj, (array, range)) else _fmt_num  # an int's text is its str
        slots = [(iter(r), k if isinstance(k, int) else iter(k)) for r, k in rule.slots]
        count = len(slots)
        for priced, same in groupby(map(truth, b.obj) if count else repeat(True, len(b))):
            size = priced + count
            # an entry ends its line on an odd place in the column or as its last
            last = [k % 2 == 1 or k == size - 1 for k in range(size)]
            left = len(list(same))
            while left:
                n = min(left, _RUN_COLUMNS)
                heads = list(map(str.ljust, islice(names, n), repeat(w_name)))
                fields = []  # the texts of each entry of the n columns, as iterables to join
                if priced:
                    value = map(fmt, islice(objs, n))
                    fields.append([repeat(cost), value if last[0] else map(str.ljust, value, repeat(14))])
                else:
                    next(islice(objs, n, n), None)
                for end, (at, k) in zip(last[priced:], slots):
                    if isinstance(k, int):
                        fields.append([map(table(k, end).__getitem__, islice(at, n))])
                    else:  # a coefficient per column: its row's name, then its value
                        values = map(_fmt_num if end else _field, islice(k, n))
                        fields.append([map(padded.__getitem__, islice(at, n)), values])
                lines = [[repeat("\n    "), heads, *chain.from_iterable(fields[k : k + 2])] for k in range(0, size, 2)]
                yield "".join(chain.from_iterable(zip(*chain.from_iterable(lines))))[1:]
                left -= n
    if inside:
        yield f"    MARKER{marker:<{w_name - 6}}'MARKER'                 'INTEND'"


def _mps_bounds(b: VarBlock) -> list[tuple[str, str]]:
    """(type, value) of each BOUNDS line of a variable of ``b``; a binary's
    one line, BV, has no value."""
    if b.kind == BINARY:
        return [("BV", "")]
    if b.ub is not None and b.lb == b.ub:
        return [("FX", _fmt_num(b.lb))]
    lower = [("LO", _fmt_num(b.lb))] if b.lb != 0 else []
    return lower + ([("UP", _fmt_num(b.ub))] if b.ub is not None else [])


def _bound_runs(blocks: list[VarBlock], w_name: int) -> Iterator[str]:
    """The BOUNDS lines of the variables of ``blocks``, a run per
    ``_RUN_LINES`` variables of a block, each run one join. A name is padded
    to ``w_name`` before a value; a BV line ends at the name."""
    bnd = f"{'BND':<{w_name - 1}}"
    for b in blocks:
        if marks := _mps_bounds(b):
            names = iter(b.names())
            width = w_name if marks[0][1] else 0
            while chunk := list(map(str.ljust, islice(names, _RUN_LINES), repeat(width))):
                fields = chain.from_iterable((repeat(f"\n {tag} {bnd}"), chunk, repeat(value)) for tag, value in marks)
                yield "".join(chain.from_iterable(zip(*fields)))[1:]


def _mps_runs(model: MilpModel) -> Iterator[str]:
    """The MPS text as runs of lines.

    It reads each row's head only, never its entries: COLUMNS reads each
    block's entries from its column rule and formats each column's COST
    entry as it writes the column, so no row is made or transposed and no
    per-column list of entries is kept. The name width is the widest name
    of any block, which its rule gives.
    """
    if model.quad_terms:
        raise UnsupportedFormatError("MPS cannot carry a quadratic objective; emit LP instead")
    blocks = _with_constant(model)
    rules = [b.columns() for b in blocks]
    w_name = max(10, max((rule.width for rule in rules), default=10) + 1)
    heads = list(model.heads())
    rows = list(map(itemgetter(0), heads))
    w_row = max(10, max(map(len, rows), default=10) + 1)

    sense_tag = {"<=": "L", "=": "E", ">=": "G"}
    yield f"NAME          {model.name}\nROWS\n N  COST"
    yield from _runs(map(" {}  {}".format, map(sense_tag.__getitem__, map(itemgetter(1), heads)), rows))
    yield "COLUMNS"
    yield from _column_runs(blocks, rules, rows, w_name, w_row)
    yield "RHS"
    rhs = list(map(itemgetter(2), heads))
    named = map(f"{{:<{w_row}}}".format, compress(rows, rhs))
    # an empty entry pairs with the last one when their number is odd
    entries = chain(map(add, named, map(_field, filter(None, rhs))), ("",))
    yield from _runs(map(str.rstrip, map(f"    {'RHS':<{w_name}}{{}}{{}}".format, entries, entries)))
    yield "BOUNDS"
    yield from _bound_runs(blocks, w_name)
    yield "ENDATA"


def write_mps(model: MilpModel, fh: TextIO) -> None:
    """Write aligned MPS text with INTORG/INTEND integrality markers for a
    validated model record to the open text file ``fh`` as it is made.

    Raises:
        UnsupportedFormatError: for models with quadratic objectives,
            before anything is written.
    """
    _write_runs(fh, _mps_runs(model))


# ---------------------------------------------------------------------------
# valuations: one value per variable position


class FeasibilityReport(NamedTuple):
    feasible: bool
    violations: tuple[str, ...]
    objective: Fraction


def check_feasible(model: MilpModel, values: Sequence[Num]) -> FeasibilityReport:
    """Exact bound/constraint evaluation of ``values[i]``, the value of variable i.

    Integrality is not checked; the report covers bounds and linear
    constraints, and the objective includes the model constant and any
    quadratic terms. A value that is not an int (a float, a Fraction) is
    read exactly as a Fraction. Each row's left side is summed from the
    column rules over the nonzero values, in integers where they are ints,
    and no row rule runs.

    Raises:
        ValidationError: ``values`` does not hold one value per variable.
    """
    n = model.num_vars
    if len(values) != n:
        raise ValidationError(f"valuation has {len(values)} values for {n} variables")
    exact = [x if type(x) is int else Fraction(x) for x in values]

    out_of_bounds: list[int] = []
    objective = Fraction(model.obj_constant)
    lhs = [0] * model.num_rows
    start = 0
    for b in model.blocks:
        part = exact[start : start + len(b)]
        if part and (min(part) < b.lb or (b.ub is not None and max(part) > b.ub)):  # scan a failing block only
            out_of_bounds += [start + i for i, x in enumerate(part) if x < b.lb or (b.ub is not None and x > b.ub)]
        objective += sum(map(mul, compress(part, part), compress(b.obj, part)))
        if any(part):
            for rows, k in b.columns().slots:
                terms = map(mul, compress(part, part), repeat(k) if isinstance(k, int) else compress(k, part))
                for r, term in zip(compress(rows, part), terms):
                    lhs[r] += term
        start += len(b)
    names = list(model.names()) if out_of_bounds else []
    violations = [f"bound {names[i]}" for i in out_of_bounds]
    for (name, sense, rhs), total in zip(model.heads(), lhs):
        ok = total <= rhs if sense == "<=" else total >= rhs if sense == ">=" else total == rhs
        if not ok:
            violations.append(f"constraint {name}")
    for a, b, coef in model.quad_terms:
        objective += exact[a] * exact[b] * coef
    return FeasibilityReport(feasible=not violations, violations=tuple(violations), objective=objective)


def schedule_to_assignment(inst: Instance, sched: Schedule, T: int, graph: FlowGraph | None) -> list[int]:
    """The value of each variable of the model that encodes the schedule.

    ``graph`` None means the ti model over horizon ``T``; otherwise the
    flow model built from ``graph`` (the straight network is one with one
    type per job). Machines are read in their given processing order,
    except that each run of consecutive jobs of one w/p ratio, whose order
    does not change the objective, is read by label as the network orders
    it: a job takes its type's arc at its start (``FlowGraph.arc``), a
    machine that ends before T the loss arc at its end; every arc ends by T.

    Raises:
        MappingError: a start or completion time has no model variable,
            which signals the schedule fell outside the reduced network.
    """
    comp = completion_times(inst, sched)

    if graph is None:
        offsets = ti_offsets(inst, T)
        values = [0] * offsets[-1]
        for j, c in comp.items():
            p = inst.job(j).p
            if c > T:
                raise MappingError(f"job {j} starts at {c - p}, beyond T - p = {T - p}")
            values[offsets[j - 1] + c - p] = 1
        return values

    type_of: dict[int, int] = {}
    for tidx, jt in enumerate(graph.types, start=1):
        for member in jt.members:
            type_of[member] = tidx

    ratio = {job.id: Fraction(job.w, job.p) for job in inst.jobs}
    values = [0] * len(graph.arcs)  # uses per arc
    for machine in sched.machines:
        t = 0
        for j in chain.from_iterable(sorted(run, key=type_of.__getitem__) for _, run in groupby(machine, ratio.get)):
            i = graph.arc(t, type_of[j])
            if i is None:
                raise MappingError(f"no arc for job {j} starting at {t} (label {type_of[j]})")
            values[i] += 1
            t += inst.job(j).p
        if t < graph.T:
            i = graph.arc(t, LOSS)
            if i is None:
                raise MappingError(f"machine completing at {t} has no loss arc to T={graph.T}")
            values[i] += 1
    return values


def assignment_to_schedule(inst: Instance, values: list[int], T: int, graph: FlowGraph | None) -> Schedule:
    """Schedule from an integral assignment that ``check_feasible`` accepted.

    ``values[i]`` is the value of variable i. A flow model, built from
    ``graph``, is split into machine paths; a ti model over horizon ``T``
    (``graph`` None) reads each job's start from the one 1 in its block of
    ``ti_offsets`` and fills machines by start time, where the cap_t <= m
    rows leave a machine free at every start. Each machine is then sorted
    by WSPT, so the objective is at most the model's.
    """
    if graph is not None:
        machines = decompose_flow(graph, values)
    else:
        offsets = ti_offsets(inst, T)
        starts = []
        for job, lo, hi in zip(inst.jobs, offsets, offsets[1:]):
            starts.append((values.index(1, lo, hi) - lo, job.id))
        free = [0] * inst.m
        machines = [[] for _ in range(inst.m)]
        for t, j in sorted(starts):
            k = next(k for k in range(inst.m) if free[k] <= t)
            machines[k].append(j)
            free[k] = t + inst.job(j).p
    return Schedule(machines=tuple(sort_machine_wspt(inst, machine) for machine in machines))


def parse_solution(lines: Iterable[str]) -> dict[str, Num]:
    """Read 'name value' lines (an open file); '#' starts a comment, blanks are
    skipped. A value is an ASCII number (integer, decimal, exponent or fraction
    form), read exactly. Only nonzero values are kept: a zero drops an earlier
    value of its name, so the last value wins, and a name not kept reads 0.
    A fraction over zero is refused, and so is a ``_`` digit separator,
    which Python 3.10 refuses and later versions read.

    A value is refused when its decimal exponent's magnitude plus its
    mantissa's digit count passes ``sys.get_int_max_str_digits()`` (4,300
    by default; 0 lifts the limit), before it is read: reading it exactly
    would build a power of ten of that many digits, and a 13-byte token
    such as 1e999999999 would take hours. A tiny value such as 1e-5000 is
    refused too; what solvers write, such as 1e-09 or 2.9999999999999996,
    reads as before.
    """
    limit = sys.get_int_max_str_digits()
    valuation: dict[str, Num] = {}
    # each item is split as the whole text would be, and an empty item is one line, so the numbers stay
    for lineno, raw in enumerate(chain.from_iterable(line.splitlines() or [""] for line in lines), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"solution line {lineno}: expected 'name value', got {_excerpt(line)}")
        name, value = parts
        try:  # a plain integer skips Fraction's parse and its rounding later
            # int and Fraction read digits of every script, and Fraction "1_0" from Python 3.11 on
            if not value.isascii() or "_" in value:
                raise ValueError
            mantissa, _, exponent = value.lower().partition("e")
            if limit and abs(int(exponent or 0)) + sum(map(str.isdigit, mantissa)) > limit:
                raise ValueError
            x = int(value) if value.isdecimal() else Fraction(value)
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
            raise ValueError(f"solution line {lineno}: bad numeric value {_excerpt(value)}") from None
        if x:
            valuation[name] = x
        else:
            valuation.pop(name, None)
    return valuation
