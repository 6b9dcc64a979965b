"""Solver-agnostic MILP records for the five formulations, plus emission.

Models are plain records of variables, linear constraints and a linear
(optionally quadratic) objective with exact rational coefficients.
Variables are held as column blocks: a run of positions with one kind,
one pair of bounds, an objective coefficient per variable and one name
rule, so no name is stored; names are made only by the writers, the
violation messages and the solution lookup. Rows and quadratic terms refer
to variables by position, and a valuation is one value per position, so
the schedule mapping, the exact check and the decode read no name. Models
are streamed to a file as LP or MPS text and never solved in-process; an
external solver can be driven through the CLI. The MPS writer reads the
rows through a column index (one 4-byte text id per nonzero, grouped by
column) and keeps no per-column list of entries.

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

import io
import re
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, groupby, islice, repeat
from operator import mul
from typing import NamedTuple, TextIO

from .flowgraph import LOSS, FlowGraph, _write_lines, decompose_flow
from .instance import Instance, JobType, Schedule, ValidationError, completion_times, sort_machine_wspt

Num = int | Fraction

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

# The CLI refuses a model whose estimated peak memory, build plus emission,
# exceeds MAX_MODEL_BYTES: a nonzero bound (``estimate_nonzeros``,
# ``flow_nonzeros``) times the form's peak RSS per estimated nonzero. The
# rates are the largest measured over LP and MPS, m = 2 and 4, p and w in
# U[1, 100]; they differ because per-variable records and names weigh more
# where a variable has few entries. af is eaf with every reduction off, so the
# one flow builder has one rate, the larger of the two measured. The budget
# leaves room on an 8 GB host.
BYTES_PER_NONZERO = {"ti": 142, "pti": 462, "af": 364, "eaf": 364, "ciqp": 380}
MAX_MODEL_BYTES = 6 * 10**9


class MappingError(ValueError):
    """Schedule uses a start time with no corresponding model variable."""


class UnsupportedFormatError(ValueError):
    """Requested emission format cannot represent the model."""


class ModelSizeError(ValueError):
    """A model, or the machines of a schedule, would need more than MAX_MODEL_BYTES."""


class Variable(NamedTuple):
    """One variable's record, made on demand by ``MilpModel.columns``."""

    name: str
    lb: Num
    ub: Num | None
    kind: str
    obj: Num = 0


@dataclass(frozen=True)
class VarBlock:
    """Variables at consecutive positions that share a kind and bounds.

    ``obj[i]`` is the objective coefficient of the block's i-th variable,
    so ``len(obj)`` is the block's size. ``names()`` makes the block's
    names in order from its name rule; no name is stored.
    """

    kind: str
    lb: Num
    ub: Num | None
    obj: Sequence[Num]
    names: Callable[[], Iterable[str]]

    def __len__(self) -> int:
        return len(self.obj)


def _single(name: str, lb: Num, ub: Num | None, kind: str, obj: Num) -> VarBlock:
    return VarBlock(kind, lb, ub, (obj,), lambda: (name,))


@dataclass(frozen=True)
class Constraint:
    """One linear row: entry ``coefs[i]`` on the variable at position ``cols[i]``.

    ``cols`` holds unsigned 32-bit positions; ``coefs`` is None when every
    entry is 1.
    """

    name: str
    sense: str  # one of <=, =, >=
    rhs: Num
    cols: array
    coefs: array | None = None

    @property
    def terms(self) -> list[tuple[int, int]]:
        """(variable position, coefficient) per stored entry."""
        return list(zip(self.cols, repeat(1) if self.coefs is None else self.coefs))


@dataclass
class MilpModel:
    name: str
    blocks: list[VarBlock] = field(default_factory=list)  # variables, in position order
    constraints: list[Constraint] = field(default_factory=list)
    obj_constant: Num = 0
    quad_terms: list[tuple[int, int, Num]] = field(default_factory=list)  # positions and coefficient

    @property
    def num_vars(self) -> int:
        return sum(map(len, self.blocks))

    def names(self) -> Iterator[str]:
        """Every variable name, in position order, made from the block rules."""
        return chain.from_iterable(b.names() for b in self.blocks)

    def columns(self) -> Iterator[Variable]:
        """Every variable's record, in position order."""
        for b in self.blocks:
            for name, obj in zip(b.names(), b.obj):
                yield Variable(name, b.lb, b.ub, b.kind, obj)

    def add_var(self, name: str, lb: Num, ub: Num | None, kind: str, obj: Num = 0) -> int:
        """Append a one-variable block; returns the variable's position."""
        self.blocks.append(_single(name, lb, ub, kind, obj))
        return self.num_vars - 1

    def add_constraint(self, name: str, cols, sense: str, rhs: Num, coefs=None) -> None:
        """Append a row over variable positions ``cols``; ``coefs=None`` means all ones.

        Raises:
            ValidationError: a position or coefficient is not an integer.
        """
        try:
            row = Constraint(name, sense, rhs, array("I", cols), None if coefs is None else array("q", coefs))
        except (TypeError, OverflowError) as exc:
            raise ValidationError(
                f"constraint {name}: positions must be integers >= 0 and coefficients integers ({exc})"
            ) from None
        self.constraints.append(row)

    def nonzeros(self) -> int:
        """Stored constraint entries plus quadratic objective terms."""
        return sum(len(c.cols) for c in self.constraints) + len(self.quad_terms)

    def validate(self) -> "MilpModel":
        # a block of several variables names them by a rule over distinct
        # arguments, so only one-variable blocks (add_var) can repeat a name
        names = [name for b in self.blocks if len(b) == 1 for name in b.names()]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate variable names: {dupes}")
        for b in self.blocks:
            if b.ub is not None and b.lb > b.ub:
                raise ValidationError(f"variable {next(iter(b.names()))}: lb {b.lb} > ub {b.ub}")
        n = self.num_vars
        for c in self.constraints:
            if c.sense not in ("<=", "=", ">="):
                raise ValidationError(f"constraint {c.name}: bad sense {c.sense!r}")
            if not (isinstance(c.cols, array) and c.cols.typecode == "I"):
                raise ValidationError(f"constraint {c.name}: positions must be an unsigned int array")
            if c.cols and max(c.cols) >= n:
                raise ValidationError(f"constraint {c.name} references a variable position outside 0..{n - 1}")
            if c.coefs is not None and not (
                isinstance(c.coefs, array) and c.coefs.typecode == "q" and len(c.coefs) == len(c.cols)
            ):
                raise ValidationError(f"constraint {c.name}: coefficients must be {len(c.cols)} integers")
        for a, b, _ in self.quad_terms:
            if not (0 <= a < n and 0 <= b < n):
                raise ValidationError(f"quadratic term references a variable position outside 0..{n - 1}")
        return self


# ---------------------------------------------------------------------------
# size guard


def estimate_nonzeros(inst: Instance, form: str, T: int) -> int:
    """Nonzeros (as ``MilpModel.nonzeros``) of form ti, pti or ciqp, in O(n).

    ti: each x_{j}_{t} sits in one assignment row and p_j capacity rows.
    pti: n m T parts plus n m links, n m T capacity entries, n m assignment
    entries. ciqp: n m assignment entries and m n (n - 1) / 2 quadratic
    terms. The flow forms use ``flow_nonzeros``.
    """
    n, m = inst.n, inst.m
    if form == "ti":
        return sum((j.p + 1) * (T - j.p + 1) for j in inst.jobs)
    if form == "pti":
        return n * m * (2 * T + 2)
    if form == "ciqp":
        return n * m + m * n * (n - 1) // 2
    raise ValueError(f"unknown form {form!r}")


def flow_nonzeros(types: list[JobType], windows: list[tuple[int, int]], T: int, t_prime: int) -> int:
    """Upper bound on the nonzeros of an af/eaf model, in O(len(types)).

    Type k has at most one job arc per start in [a_k, min(b_k, T - p_k)];
    loss arcs leave 0 and points in [max(T', 1), T). Every arc sits in two
    flow rows and a job arc also in its type's demand row.
    """
    job_arcs = sum(max(0, min(b, T - jt.p) - a + 1) for jt, (a, b) in zip(types, windows))
    loss_arcs = 1 + max(0, T - max(t_prime, 1))
    return 3 * job_arcs + 2 * loss_arcs


def check_size(form: str, nonzeros: int) -> None:
    """Refuse a model of ``form`` whose ``nonzeros`` would need more than
    MAX_MODEL_BYTES at the form's measured bytes per nonzero.

    Raises:
        ModelSizeError: the memory estimate is above the guard.
    """
    need = nonzeros * BYTES_PER_NONZERO[form]
    if need > MAX_MODEL_BYTES:
        raise ModelSizeError(
            f"form {form} model may hold {nonzeros:.3g} nonzeros, about {need / 1e9:.3g} GB,"
            f" above the model guard of {MAX_MODEL_BYTES / 1e9:.3g} GB"
        )


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
    if T < inst.p_max:
        raise ValidationError(f"horizon T={T} is smaller than the longest job p={inst.p_max}")
    model = MilpModel(name=f"ti_n{inst.n}_m{inst.m}")
    offsets = ti_offsets(inst, T)
    for job in inst.jobs:  # one block per job, t = 0..T-p_j
        size = T - job.p + 1
        names = lambda j=job.id, size=size: (f"x_{j}_{t}" for t in range(size))
        model.blocks.append(VarBlock(BINARY, 0, 1, range(0, job.w * size, job.w), names))
    model.obj_constant = sum(j.w * j.p for j in inst.jobs)
    pos = array("I", range(offsets[-1]))  # rows copy slices of it
    for job, base in zip(inst.jobs, offsets):
        model.add_constraint(f"assign_{job.id}", pos[base : base + T - job.p + 1], "=", 1)
    for t in range(0, T):
        cols = array("I")
        for job, base in zip(inst.jobs, offsets):
            lo = max(0, t + 1 - job.p)
            hi = min(t, T - job.p)
            cols += pos[base + lo : base + hi + 1]
        model.add_constraint(f"cap_{t}", cols, "<=", inst.m)
    return model.validate()


def build_ciqp(inst: Instance) -> MilpModel:
    """Assignment binaries with a quadratic completion-time objective.

    On each machine jobs run in WSPT order, so job j's completion time is
    p_j plus the processing of earlier-ordered jobs sharing its machine.
    With x^2 = x for binaries the objective expands to linear terms
    w_j p_j x_{j}_{k} plus bilinear terms w_j p_i x_{i}_{k} x_{j}_{k} over
    ordered pairs i before j.
    """
    m = inst.m
    model = MilpModel(name=f"ciqp_n{inst.n}_m{m}")
    # x_{j}_{k} sits at position (j - 1) * m + k - 1, in job j's block
    for job in inst.jobs:
        names = lambda j=job.id: (f"x_{j}_{k}" for k in range(1, m + 1))
        model.blocks.append(VarBlock(BINARY, 0, 1, [job.w * job.p] * m, names))
    order = inst.wspt_ids
    for pos, j in enumerate(order):
        wj = inst.job(j).w
        for i in order[:pos]:
            pi = inst.job(i).p
            for k in range(m):
                model.quad_terms.append(((i - 1) * m + k, (j - 1) * m + k, wj * pi))
    for job in inst.jobs:
        base = (job.id - 1) * m
        model.add_constraint(f"assign_{job.id}", range(base, base + m), "=", 1)
    return model.validate()


def build_pti(inst: Instance, T: int) -> MilpModel:
    """Preemption-shaped model over unit parts finished at t = 1..T.

    The objective prices a unit part of job j finished at t at
    (w_j / p_j) * (t + (p_j - 1) / 2) = w_j (2t + p_j - 1) / (2 p_j), made
    as one exact fraction each; linking
    constraints force all p_j parts onto the machine chosen by y_{j}_{k}.
    """
    if T < inst.p_max:
        raise ValidationError(f"horizon T={T} is smaller than the longest job p={inst.p_max}")
    m = inst.m
    model = MilpModel(name=f"pti_n{inst.n}_m{m}")
    # x_{j}_{k}_{t} sits at ((j - 1) * m + k - 1) * T + t - 1, in job j's
    # block, and y_{j}_{k} at ys + (j - 1) * m + k - 1
    for job in inst.jobs:  # the T coefficients of a job repeat on each machine
        coefs = [Fraction(job.w * (2 * t + job.p - 1), 2 * job.p) for t in range(1, T + 1)]
        names = lambda j=job.id: (f"x_{j}_{k}_{t}" for k in range(1, m + 1) for t in range(1, T + 1))
        model.blocks.append(VarBlock(CONTINUOUS, 0, None, coefs * m, names))
    ys = model.num_vars
    names = lambda: (f"y_{job.id}_{k}" for job in inst.jobs for k in range(1, m + 1))
    model.blocks.append(VarBlock(BINARY, 0, 1, [0] * (inst.n * m), names))
    pos = array("I", range(model.num_vars))  # rows copy slices of it
    for job in inst.jobs:
        for k in range(1, m + 1):
            base = ((job.id - 1) * m + k - 1) * T
            cols = pos[base : base + T]
            cols.append(ys + (job.id - 1) * m + k - 1)
            model.add_constraint(f"parts_{job.id}_{k}", cols, "=", 0, coefs=[*repeat(1, T), -job.p])
    for k in range(1, m + 1):
        for t in range(1, T + 1):
            model.add_constraint(f"cap_{k}_{t}", pos[(k - 1) * T + t - 1 : ys : m * T], "<=", 1)
    for job in inst.jobs:
        base = ys + (job.id - 1) * m
        model.add_constraint(f"assign_{job.id}", range(base, base + m), "=", 1)
    return model.validate()


def build_eaf_model(g: FlowGraph) -> MilpModel:
    """Reduced network model: integer per type arc, demand d per type.

    Variable i is arc i of the network, named x_{tail}_{head}_{label} or,
    for a loss arc, L_{tail}; each run of arcs with one label is a block
    whose names are read from the graph arrays. The objective constant
    counts every scheduled copy, i.e. the sum of d * w * p over the
    network's types; the flow value m is the loss-arc capacity.
    """
    types, m = g.types, g.capacity[LOSS]
    model = MilpModel(name=f"eaf_t{len(types)}_m{m}")
    start = 0
    for k, run in groupby(g.label):
        end = start + sum(1 for _ in run)
        if k == LOSS:
            names = lambda s=start, e=end: (f"L_{t}" for t in g.tail[s:e])
            obj = [0] * (end - start)
        else:
            names = lambda s=start, e=end, k=k: (f"x_{t}_{h}_{k}" for t, h in zip(g.tail[s:e], g.head[s:e]))
            w = types[k - 1].w
            obj = array("q", [w * t for t in g.tail[start:end]])
        model.blocks.append(VarBlock(INTEGER, 0, g.capacity[k], obj, names))
        start = end
    row_of = {q: r for r, q in enumerate(g.nodes)}
    flow_cols = [array("I") for _ in g.nodes]
    flow_coefs = [array("q") for _ in g.nodes]
    demand_cols = [array("I") for _ in types]
    for i, (tail, head, k) in enumerate(zip(g.tail, g.head, g.label)):
        if k != LOSS:
            demand_cols[k - 1].append(i)
        out, into = row_of[tail], row_of[head]
        flow_cols[out].append(i)
        flow_coefs[out].append(1)
        flow_cols[into].append(i)
        flow_coefs[into].append(-1)
    model.obj_constant = sum(t.d * t.w * t.p for t in types)
    for q, cols, coefs in zip(g.nodes, flow_cols, flow_coefs):
        rhs = m if q == 0 else -m if q == g.T else 0
        model.add_constraint(f"flow_{q}", cols, "=", rhs, coefs=coefs)
    for tidx, (jt, cols) in enumerate(zip(types, demand_cols), start=1):
        model.add_constraint(f"demand_{tidx}", cols, ">=", jt.d)
    return model.validate()


# ---------------------------------------------------------------------------
# emission

_ONE = "ONE"


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
    """One line of parts joined by newlines, at most ``room`` characters:
    the longest run of whole parts that fits, or one part alone that does
    not; the newline after it is consumed."""
    return re.compile(rf"(.{{1,{room}}}|[^\n]+)(?:\n|\Z)", re.S)


def _wrap(parts: Iterable[str], indent: str = "   ", width: int = 72, end: str = "") -> Iterator[str]:
    """Greedy fill of ``parts``, one space apart, into lines of at most
    ``width`` columns; a part that would overflow opens a line at ``indent``.
    ``end`` is appended to the last line.

    Parts are joined by newlines a slice at a time, and the slice is cut
    into lines by one pattern scan; the open last line is carried into the
    next slice. No part holds a newline, as it would end the line.
    """
    parts = iter(parts)
    carry = ""  # the open line, with its indent and its spaces
    while chunk := list(islice(parts, _WRAP_PARTS)):
        text = "\n".join(chunk) if not carry else carry + "\n" + "\n".join(chunk)
        # the open line holds its indent already, so it is cut at the full width
        first = _line_pattern(width).match(text)
        if first.end() == len(text):
            carry = text.replace("\n", " ")
            continue
        *lines, last = _line_pattern(width - len(indent)).findall(text, first.end())
        yield first[1].replace("\n", " ")
        yield from [indent + line.replace("\n", " ") for line in lines]
        carry = indent + last.replace("\n", " ")
    if carry:
        yield carry + end


def _signed(plus: list[str], cols: Iterable[int], coefs: Iterable[Num]) -> Iterator[str]:
    """LP text of each nonzero entry ``coefs[k]`` on position ``cols[k]``,
    with its sign; ``plus[i]`` is "+ name" of variable i."""
    return (
        plus[i] if coef == 1 else "-" + plus[i][1:] if coef == -1 else
        f"+ {_fmt_num(coef)} {plus[i][2:]}" if coef > 0 else f"- {_fmt_num(-coef)} {plus[i][2:]}"
        for i, coef in zip(cols, coefs)
        if coef
    )


def _sum_lines(lead: str, parts: Iterable[str], end: str = "") -> Iterator[str]:
    """``lead`` and the wrapped signed ``parts``, the first without its plus
    sign, then ``end``; "0" when there are none."""
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        return iter((lead + "0" + end,))
    return _wrap(chain((lead + (first[2:] if first[0] == "+" else first),), parts), end=end)


def _with_constant(model: MilpModel) -> list[VarBlock]:
    """The model's blocks, with ONE appended when there is a constant."""
    if model.obj_constant == 0:
        return model.blocks
    return [*model.blocks, _single(_ONE, 1, 1, CONTINUOUS, model.obj_constant)]


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


def _lp_lines(model: MilpModel) -> Iterator[str]:
    """The lines of the LP text. Each variable's "+ name" is built once; a
    row is the run of them, wrapped at 72 columns."""
    blocks = _with_constant(model)
    plus = ["+ " + name for b in blocks for name in b.names()]
    yield f"\\ {model.name}"
    yield "Minimize"
    yield from _sum_lines(" obj: ", _signed(plus, range(len(plus)), chain.from_iterable(b.obj for b in blocks)))
    if model.quad_terms:
        quad = (
            f"{'+' if 2 * coef > 0 else '-'} {_fmt_num(abs(2 * coef))} {plus[a][2:]} * {plus[b][2:]}"
            for a, b, coef in model.quad_terms
        )
        first = next(quad)
        yield from _wrap(chain(("   + [", first[2:] if first[0] == "+" else first), quad, ("] / 2",)))
    yield "Subject To"
    for c in model.constraints:
        parts = map(plus.__getitem__, c.cols) if c.coefs is None else _signed(plus, c.cols, c.coefs)
        yield from _sum_lines(f" {c.name}: ", parts, f" {c.sense} {_fmt_num(c.rhs)}")
    # the later sections cut each name from its "+ name"
    spans = [plus[start : start + len(b)] for b, start in zip(blocks, accumulate(map(len, blocks), initial=0))]
    bounded = [(span, rule) for b, span in zip(blocks, spans) if (rule := _lp_bound(b))]
    if bounded:
        yield "Bounds"
        for span, (before, after) in bounded:
            yield from (before + p[2:] + after for p in span)
    for title, kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        listed = chain.from_iterable(span for b, span in zip(blocks, spans) if b.kind == kind)
        first = next(listed, None)
        if first is not None:
            yield title
            yield from _wrap(chain((" " + first[2:],), (p[2:] for p in listed)), indent="  ")
    yield "End"


def write_lp(model: MilpModel, fh: TextIO) -> None:
    """Write CPLEX-LP-style text, deterministic for a given model record,
    to the open text file ``fh`` as it is made: the whole text is never
    held in memory."""
    _write_lines(fh, _lp_lines(model))


def emit_lp(model: MilpModel) -> str:
    """The text ``write_lp`` writes."""
    out = io.StringIO()
    write_lp(model, out)
    return out.getvalue()


def _field(x: Num) -> str:
    """An MPS value field: the number padded to 14."""
    return f"{x:<14}" if type(x) is int else f"{_fmt_num(x):<14}"


def _row_columns(c: Constraint) -> tuple[Sequence[int], Sequence[int] | None]:
    """The row's entries as MPS writes them: its positions and coefficients
    (None when all are 1), repeated positions summed in first-appearance
    order and zero sums dropped. A row with no repeated position and no zero
    coefficient is returned as it is stored."""
    if (c.coefs is None or 0 not in c.coefs) and len(set(c.cols)) == len(c.cols):
        return c.cols, c.coefs
    acc: dict[int, int] = {}
    for i, k in zip(c.cols, repeat(1) if c.coefs is None else c.coefs):
        acc[i] = acc.get(i, 0) + k
    entries = [(i, k) for i, k in acc.items() if k]
    return [i for i, _ in entries], [k for _, k in entries]


def _column_index(model: MilpModel, num_cols: int, w_row: int) -> tuple[array, array, list[str]]:
    """The rows transposed to columns: column i's "row value" entries, in
    row order, are ``texts[ids[e]]`` for e in ``range(starts[i], starts[i + 1])``.

    ``texts`` holds one padded row name and value per distinct (row,
    coefficient), so no entry text is made per nonzero.
    """
    rows = [_row_columns(c) for c in model.constraints]
    fill = [0] * num_cols  # entries per column, then the next free slot of each
    for cols, _ in rows:
        for i in cols:
            fill[i] += 1
    starts = array("I", accumulate(fill, initial=0))
    fill[:] = starts[:-1]
    ids = array("I", [0]) * starts[-1]
    texts: list[str] = []
    for c, (cols, coefs) in zip(model.constraints, rows):
        row = f"{c.name:<{w_row}}"
        if coefs is None:  # one text for the whole row
            tid = len(texts)
            texts.append(row + _field(1))
            for i in cols:
                e = fill[i]
                ids[e] = tid
                fill[i] = e + 1
            continue
        tid_of = {k: tid for tid, k in enumerate(dict.fromkeys(coefs), start=len(texts))}
        texts += [row + _field(k) for k in tid_of]
        for i, tid in zip(cols, map(tid_of.__getitem__, coefs)):
            e = fill[i]
            ids[e] = tid
            fill[i] = e + 1
    return starts, ids, texts


def _pairs(head: str, entries: list[str]) -> list[str]:
    """MPS data lines: ``head`` then two entries each, trailing padding cut.
    An odd ``entries`` list is padded in place with an empty entry."""
    if len(entries) % 2:
        entries.append("")
    pairs = iter(entries)
    return [(head + a + b).rstrip() for a, b in zip(pairs, pairs)]


def _mps_bounds(b: VarBlock) -> list[tuple[str, str]]:
    """(type, value) of each BOUNDS line of a non-binary variable of ``b``."""
    if b.ub is not None and b.lb == b.ub:
        return [("FX", _fmt_num(b.lb))]
    lower = [("LO", _fmt_num(b.lb))] if b.lb != 0 else []
    return lower + ([("UP", _fmt_num(b.ub))] if b.ub is not None else [])


def _mps_lines(model: MilpModel) -> Iterator[str]:
    """The lines of the MPS text.

    COLUMNS reads the rows through a column index (``_column_index``) and
    formats each column's COST entry as it writes the column, so no
    per-column list of entries is kept.
    """
    if model.quad_terms:
        raise UnsupportedFormatError("MPS cannot carry a quadratic objective; emit LP instead")
    blocks = _with_constant(model)
    w_name = max(10, max(map(len, chain.from_iterable(b.names() for b in blocks)), default=10) + 1)
    w_row = max(10, max((len(c.name) for c in model.constraints), default=10) + 1)
    starts, ids, texts = _column_index(model, sum(map(len, blocks)), w_row)

    yield f"NAME          {model.name}"
    yield "ROWS"
    yield " N  COST"
    sense_tag = {"<=": "L", "=": "E", ">=": "G"}
    yield from (f" {sense_tag[c.sense]}  {c.name}" for c in model.constraints)
    yield "COLUMNS"
    # a data line is head, a padded entry and an entry with its padding cut
    ends = [t.rstrip() for t in texts]
    head = f"    {{:<{w_name}}}".format
    cost = f"{'COST':<{w_row}}{{:<14}}".format  # the COST entry of a number's text
    no_cost = cost("0")
    spans = zip(starts, islice(starts, 1, None))  # shared by the blocks, in position order
    marker = 0
    for integral, group in groupby(blocks, key=lambda b: b.kind in (BINARY, INTEGER)):
        if integral:
            yield f"    MARKER{marker:<{w_name - 6}}'MARKER'                 'INTORG'"
        for b in group:
            # an array or range holds ints, which format as _fmt_num does
            costs = map(cost, b.obj if isinstance(b.obj, (array, range)) else map(_fmt_num, b.obj))
            # names first: zip stops at the block's last name, before taking
            # the next block's span
            for h, c, (s, e) in zip(map(head, b.names()), costs, spans):
                if s == e:  # a column in no row still gets its COST entry, zero or not
                    yield (h + c).rstrip()
                    continue
                if c != no_cost:  # the COST entry pairs with the first row entry
                    yield h + c + ends[ids[s]]
                    s += 1
                pairs = iter(ids[s:e])
                yield from [h + texts[x] + ends[y] for x, y in zip(pairs, pairs)]
                if (e - s) % 2:
                    yield h + ends[ids[e - 1]]
        if integral:
            yield f"    MARKER{marker + 1:<{w_name - 6}}'MARKER'                 'INTEND'"
            marker += 2
    yield "RHS"
    rhs_entries = [f"{c.name:<{w_row}}" + _field(c.rhs) for c in model.constraints if c.rhs != 0]
    yield from _pairs(f"    {'RHS':<{w_name}}", rhs_entries)
    yield "BOUNDS"
    bnd = f"{'BND':<{w_name - 1}}"
    for b in blocks:
        if b.kind == BINARY:
            yield from map(f" BV {bnd}{{}}".format, b.names())
        elif marks := _mps_bounds(b):
            # one template per variable; an LO and an UP line are one "line"
            # holding a newline, which writes the same bytes
            template = "\n".join(f" {tag} {bnd}{{0:<{w_name}}}{value}" for tag, value in marks)
            yield from map(template.format, b.names())
    yield "ENDATA"


def write_mps(model: MilpModel, fh: TextIO) -> None:
    """Write aligned MPS text with INTORG/INTEND integrality markers to the
    open text file ``fh`` as it is made.

    Raises:
        UnsupportedFormatError: for models with quadratic objectives,
            before anything is written.
    """
    _write_lines(fh, _mps_lines(model))


def emit_mps(model: MilpModel) -> str:
    """The text ``write_mps`` writes.

    Raises:
        UnsupportedFormatError: for models with quadratic objectives.
    """
    out = io.StringIO()
    write_mps(model, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# valuations: one value per variable position


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]
    objective: Fraction


def check_feasible(model: MilpModel, values: Sequence[Num]) -> FeasibilityReport:
    """Exact bound/constraint evaluation of ``values[i]``, the value of variable i.

    Integrality is not checked; the report covers bounds and linear
    constraints, and the objective includes the model constant and any
    quadratic terms. A value that is not an int (a float, a Fraction) is
    read exactly as a Fraction, so rows of int values sum in integers.

    Raises:
        ValidationError: ``values`` does not hold one value per variable.
    """
    n = model.num_vars
    if len(values) != n:
        raise ValidationError(f"valuation has {len(values)} values for {n} variables")
    exact = [x if type(x) is int else Fraction(x) for x in values]

    out_of_bounds: list[int] = []
    objective = Fraction(model.obj_constant)
    start = 0
    for b in model.blocks:
        part = exact[start : start + len(b)]
        out_of_bounds += [start + i for i, x in enumerate(part) if x < b.lb or (b.ub is not None and x > b.ub)]
        objective += sum(x * c for x, c in zip(part, b.obj) if x)
        start += len(b)
    names = list(model.names()) if out_of_bounds else []
    violations = [f"bound {names[i]}" for i in out_of_bounds]
    for c in model.constraints:
        picked = map(exact.__getitem__, c.cols)
        lhs = sum(picked) if c.coefs is None else sum(map(mul, picked, c.coefs))
        ok = lhs <= c.rhs if c.sense == "<=" else lhs >= c.rhs if c.sense == ">=" else lhs == c.rhs
        if not ok:
            violations.append(f"constraint {c.name}")
    for a, b, coef in model.quad_terms:
        objective += exact[a] * exact[b] * coef
    return FeasibilityReport(feasible=not violations, violations=tuple(violations), objective=objective)


def schedule_to_assignment(inst: Instance, sched: Schedule, T: int, graph: FlowGraph | None) -> list[int]:
    """The value of each variable of the model that encodes the schedule.

    ``graph`` None means the ti model over horizon ``T``; otherwise the
    flow model built from ``graph`` (the straight network is one with one
    type per job). Machines are read in their given processing order.

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

    # arc positions grouped by tail: a lookup key per arc would cost a tuple per arc
    out_arcs: dict[int, list[int]] = {}
    for i, tail in enumerate(graph.tail):
        out_arcs.setdefault(tail, []).append(i)

    def arc_at(tail: int, head: int, label: int) -> int | None:
        return next((i for i in out_arcs.get(tail, ()) if graph.head[i] == head and graph.label[i] == label), None)

    type_of: dict[int, int] = {}
    for tidx, jt in enumerate(graph.types, start=1):
        for member in jt.members:
            type_of[member] = tidx

    values = [0] * len(graph.label)  # uses per arc
    for machine in sched.machines:
        t = 0
        for j in machine:
            p = inst.job(j).p
            i = arc_at(t, t + p, type_of[j])
            if i is None:
                raise MappingError(f"no arc for job {j} starting at {t} (label {type_of[j]})")
            values[i] += 1
            t += p
        if t < graph.T:
            i = arc_at(t, graph.T, LOSS)
            if i is None:
                raise MappingError(f"machine completing at {t} has no loss arc to T={graph.T}")
            values[i] += 1
        elif t > graph.T:
            raise MappingError(f"machine load {t} exceeds the horizon T={graph.T}")
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


def parse_solution(text: str) -> dict[str, Num]:
    """Read 'name value' lines; '#' starts a comment, blanks are skipped."""
    valuation: dict[str, Num] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"solution line {lineno}: expected 'name value', got {line!r}")
        name, value = parts
        try:  # a plain integer skips Fraction's parse and its rounding later
            valuation[name] = int(value) if value.isdecimal() else Fraction(value)
        except ValueError:
            raise ValueError(f"solution line {lineno}: bad numeric value {value!r}") from None
    return valuation
