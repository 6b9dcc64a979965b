"""Solver-agnostic MILP records for the five formulations, plus emission.

Models are plain records of variables, linear constraints and a linear
(optionally quadratic) objective with exact rational coefficients. They
are emitted as LP or MPS text and never solved in-process; an external
solver can be driven through the CLI.

Formulations
------------
ti    binaries x_{j}_{t}: job j starts at time t.
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

from dataclasses import dataclass, field
from fractions import Fraction

from .flowgraph import LOSS, Arc, FlowGraph
from .instance import Instance, JobType, Schedule, ValidationError, completion_times

Num = int | Fraction

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"


class MappingError(ValueError):
    """Schedule uses a start time with no corresponding model variable."""


class UnsupportedFormatError(ValueError):
    """Requested emission format cannot represent the model."""


@dataclass(frozen=True)
class Variable:
    name: str
    lb: Num
    ub: Num | None
    kind: str
    obj: Num = 0


@dataclass(frozen=True)
class Constraint:
    name: str
    sense: str  # one of <=, =, >=
    rhs: Num
    terms: tuple[tuple[str, Num], ...]


@dataclass
class MilpModel:
    name: str
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    obj_constant: Num = 0
    quad_terms: list[tuple[str, str, Num]] = field(default_factory=list)

    def add_var(self, name: str, lb: Num, ub: Num | None, kind: str, obj: Num = 0) -> None:
        self.variables.append(Variable(name, lb, ub, kind, obj))

    def add_constraint(self, name: str, terms: list[tuple[str, Num]], sense: str, rhs: Num) -> None:
        self.constraints.append(Constraint(name, sense, rhs, tuple(terms)))

    def validate(self) -> "MilpModel":
        names = [v.name for v in self.variables]
        declared = set(names)
        if len(declared) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate variable names: {dupes}")
        for v in self.variables:
            if v.ub is not None and v.lb > v.ub:
                raise ValidationError(f"variable {v.name}: lb {v.lb} > ub {v.ub}")
        for c in self.constraints:
            if c.sense not in ("<=", "=", ">="):
                raise ValidationError(f"constraint {c.name}: bad sense {c.sense!r}")
            for name, _ in c.terms:
                if name not in declared:
                    raise ValidationError(f"constraint {c.name} references unknown variable {name}")
        for va, vb, _ in self.quad_terms:
            if va not in declared or vb not in declared:
                raise ValidationError(f"quadratic term references unknown variable {va} or {vb}")
        return self

    def var_map(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}


# ---------------------------------------------------------------------------
# builders


def build_ti(inst: Instance, T: int) -> MilpModel:
    """Time-indexed model: start binaries over t = 0..T-p_j.

    Objective sum of w_j * t * x_{j}_{t} plus the constant sum of w_j p_j;
    one assignment constraint per job and one machine-capacity constraint
    per time slot t = 0..T-1.
    """
    if T < inst.p_max:
        raise ValidationError(f"horizon T={T} is smaller than the longest job p={inst.p_max}")
    model = MilpModel(name=f"ti_n{inst.n}_m{inst.m}")
    for job in inst.jobs:
        for t in range(0, T - job.p + 1):
            model.add_var(f"x_{job.id}_{t}", 0, 1, BINARY, obj=job.w * t)
    model.obj_constant = sum(j.w * j.p for j in inst.jobs)
    for job in inst.jobs:
        terms = [(f"x_{job.id}_{t}", 1) for t in range(0, T - job.p + 1)]
        model.add_constraint(f"assign_{job.id}", terms, "=", 1)
    for t in range(0, T):
        terms = []
        for job in inst.jobs:
            lo = max(0, t + 1 - job.p)
            hi = min(t, T - job.p)
            terms.extend((f"x_{job.id}_{s}", 1) for s in range(lo, hi + 1))
        model.add_constraint(f"cap_{t}", terms, "<=", inst.m)
    return model.validate()


def build_ciqp(inst: Instance) -> MilpModel:
    """Assignment binaries with a quadratic completion-time objective.

    On each machine jobs run in WSPT order, so job j's completion time is
    p_j plus the processing of earlier-ordered jobs sharing its machine.
    With x^2 = x for binaries the objective expands to linear terms
    w_j p_j x_{j}_{k} plus bilinear terms w_j p_i x_{i}_{k} x_{j}_{k} over
    ordered pairs i before j.
    """
    model = MilpModel(name=f"ciqp_n{inst.n}_m{inst.m}")
    for job in inst.jobs:
        for k in range(1, inst.m + 1):
            model.add_var(f"x_{job.id}_{k}", 0, 1, BINARY, obj=job.w * job.p)
    order = inst.wspt_ids
    for pos, j in enumerate(order):
        wj = inst.job(j).w
        for i in order[:pos]:
            pi = inst.job(i).p
            for k in range(1, inst.m + 1):
                model.quad_terms.append((f"x_{i}_{k}", f"x_{j}_{k}", wj * pi))
    for job in inst.jobs:
        terms = [(f"x_{job.id}_{k}", 1) for k in range(1, inst.m + 1)]
        model.add_constraint(f"assign_{job.id}", terms, "=", 1)
    return model.validate()


def build_pti(inst: Instance, T: int) -> MilpModel:
    """Preemption-shaped model over unit parts finished at t = 1..T.

    The objective prices a unit part of job j finished at t at
    (w_j / p_j) * (t + (p_j - 1) / 2), kept as exact fractions; linking
    constraints force all p_j parts onto the machine chosen by y_{j}_{k}.
    """
    if T < inst.p_max:
        raise ValidationError(f"horizon T={T} is smaller than the longest job p={inst.p_max}")
    model = MilpModel(name=f"pti_n{inst.n}_m{inst.m}")
    for job in inst.jobs:
        for k in range(1, inst.m + 1):
            for t in range(1, T + 1):
                coef = Fraction(job.w, job.p) * (Fraction(t) + Fraction(job.p - 1, 2))
                model.add_var(f"x_{job.id}_{k}_{t}", 0, None, CONTINUOUS, obj=coef)
    for job in inst.jobs:
        for k in range(1, inst.m + 1):
            model.add_var(f"y_{job.id}_{k}", 0, 1, BINARY)
    for job in inst.jobs:
        for k in range(1, inst.m + 1):
            terms: list[tuple[str, Num]] = [(f"x_{job.id}_{k}_{t}", 1) for t in range(1, T + 1)]
            terms.append((f"y_{job.id}_{k}", -job.p))
            model.add_constraint(f"parts_{job.id}_{k}", terms, "=", 0)
    for k in range(1, inst.m + 1):
        for t in range(1, T + 1):
            terms = [(f"x_{job.id}_{k}_{t}", 1) for job in inst.jobs]
            model.add_constraint(f"cap_{k}_{t}", terms, "<=", 1)
    for job in inst.jobs:
        terms = [(f"y_{job.id}_{k}", 1) for k in range(1, inst.m + 1)]
        model.add_constraint(f"assign_{job.id}", terms, "=", 1)
    return model.validate()


def _arc_var(arc: Arc) -> str:
    return f"x_{arc.tail}_{arc.head}_{arc.label}" if arc.kind == "job" else f"L_{arc.tail}"


def _job_arc_terms(g: FlowGraph) -> dict[int, list[tuple[str, Num]]]:
    terms: dict[int, list[tuple[str, Num]]] = {}
    for arc in g.arcs:
        if arc.kind == "job":
            terms.setdefault(arc.label, []).append((_arc_var(arc), 1))
    return terms


def _flow_conservation(model: MilpModel, g: FlowGraph, m: int) -> None:
    incident: dict[int, list[tuple[str, Num]]] = {q: [] for q in g.nodes}
    for arc in g.arcs:
        name = _arc_var(arc)
        incident[arc.tail].append((name, 1))
        incident[arc.head].append((name, -1))
    for q in g.nodes:
        rhs = m if q == 0 else -m if q == g.T else 0
        model.add_constraint(f"flow_{q}", incident[q], "=", rhs)


def build_eaf_model(g: FlowGraph, types: list[JobType], m: int) -> MilpModel:
    """Reduced network model: integer per type arc, demand d per type.

    The objective constant counts every scheduled copy, i.e. the sum of
    d * w * p over types.
    """
    model = MilpModel(name=f"eaf_t{len(types)}_m{m}")
    for arc in g.arcs:
        if arc.kind == "job":
            jt = types[arc.label - 1]
            model.add_var(_arc_var(arc), 0, arc.capacity, INTEGER, obj=jt.w * arc.tail)
        else:
            model.add_var(_arc_var(arc), 0, arc.capacity, INTEGER)
    model.obj_constant = sum(t.d * t.w * t.p for t in types)
    _flow_conservation(model, g, m)
    by_label = _job_arc_terms(g)
    for tidx, jt in enumerate(types, start=1):
        model.add_constraint(f"demand_{tidx}", by_label.get(tidx, []), ">=", jt.d)
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


def _wrap(parts: list[str], indent: str = "   ", width: int = 72) -> list[str]:
    lines: list[str] = []
    current = ""
    for part in parts:
        if not current:
            current = part
        elif len(current) + 1 + len(part) > width:
            lines.append(current)
            current = indent + part
        else:
            current += " " + part
    if current:
        lines.append(current)
    return lines


def _terms_text(terms: list[tuple[str, Num]], lead: str) -> list[str]:
    parts: list[str] = []
    first = True
    for name, coef in terms:
        if coef == 0:
            continue
        mag = abs(coef)
        body = name if mag == 1 else f"{_fmt_num(mag)} {name}"
        if first:
            parts.append(body if coef > 0 else f"- {body}")
            first = False
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    if not parts:
        parts = ["0"]
    return _wrap([lead + parts[0]] + parts[1:], indent="   ")


def _with_constant(model: MilpModel) -> tuple[list[Variable], list[tuple[str, Num]]]:
    """Variable list and objective terms, with ONE appended when needed."""
    variables = list(model.variables)
    obj_terms: list[tuple[str, Num]] = [(v.name, v.obj) for v in variables if v.obj != 0]
    if model.obj_constant != 0:
        variables.append(Variable(_ONE, 1, 1, CONTINUOUS, obj=model.obj_constant))
        obj_terms.append((_ONE, model.obj_constant))
    return variables, obj_terms


def emit_lp(model: MilpModel) -> str:
    """CPLEX-LP-style text, deterministic for a given model record."""
    variables, obj_terms = _with_constant(model)
    out: list[str] = [f"\\ {model.name}", "Minimize"]
    obj_lines = _terms_text(obj_terms, " obj: ")
    if model.quad_terms:
        quad_parts: list[str] = ["["]
        first = True
        for va, vb, coef in model.quad_terms:
            doubled = 2 * coef
            mag = abs(doubled)
            body = f"{_fmt_num(mag)} {va} * {vb}"
            if first:
                quad_parts.append(body if doubled > 0 else f"- {body}")
                first = False
            else:
                quad_parts.append(f"+ {body}" if doubled > 0 else f"- {body}")
        quad_parts.append("] / 2")
        obj_lines.extend(_wrap(["   + " + quad_parts[0]] + quad_parts[1:], indent="   "))
    out.extend(obj_lines)
    out.append("Subject To")
    for c in model.constraints:
        lines = _terms_text(list(c.terms), f" {c.name}: ")
        lines[-1] += f" {c.sense} {_fmt_num(c.rhs)}"
        out.extend(lines)
    bound_lines = []
    for v in variables:
        if v.kind == BINARY:
            continue
        if v.ub is not None and v.lb == v.ub:
            bound_lines.append(f" {v.name} = {_fmt_num(v.lb)}")
        elif v.ub is None:
            if v.lb != 0:
                bound_lines.append(f" {v.name} >= {_fmt_num(v.lb)}")
        else:
            bound_lines.append(f" {_fmt_num(v.lb)} <= {v.name} <= {_fmt_num(v.ub)}")
    if bound_lines:
        out.append("Bounds")
        out.extend(bound_lines)
    binaries = [v.name for v in variables if v.kind == BINARY]
    generals = [v.name for v in variables if v.kind == INTEGER]
    if binaries:
        out.append("Binaries")
        out.extend(_wrap([" " + binaries[0]] + binaries[1:], indent="  "))
    if generals:
        out.append("Generals")
        out.extend(_wrap([" " + generals[0]] + generals[1:], indent="  "))
    out.append("End")
    return "\n".join(out) + "\n"


def emit_mps(model: MilpModel) -> str:
    """Aligned MPS text with INTORG/INTEND integrality markers.

    Raises:
        UnsupportedFormatError: for models with quadratic objectives.
    """
    if model.quad_terms:
        raise UnsupportedFormatError("MPS cannot carry a quadratic objective; emit LP instead")
    variables, _ = _with_constant(model)
    col_entries: dict[str, list[tuple[str, Num]]] = {v.name: [] for v in variables}
    for v in variables:
        if v.obj != 0:
            col_entries[v.name].append(("COST", v.obj))
    for c in model.constraints:
        acc: dict[str, Num] = {}
        for name, coef in c.terms:
            acc[name] = acc.get(name, 0) + coef
        for name, coef in acc.items():
            if coef != 0:
                col_entries[name].append((c.name, coef))

    w_name = max(10, max((len(v.name) for v in variables), default=10) + 1)
    w_row = max(10, max((len(c.name) for c in model.constraints), default=10) + 1)

    out = [f"NAME          {model.name}", "ROWS", " N  COST"]
    sense_tag = {"<=": "L", "=": "E", ">=": "G"}
    for c in model.constraints:
        out.append(f" {sense_tag[c.sense]}  {c.name}")
    out.append("COLUMNS")
    in_int = False
    marker = 0
    for v in variables:
        wants_int = v.kind in (BINARY, INTEGER)
        if wants_int and not in_int:
            out.append(f"    MARKER{marker:<{w_name - 6}}'MARKER'                 'INTORG'")
            in_int = True
            marker += 1
        elif not wants_int and in_int:
            out.append(f"    MARKER{marker:<{w_name - 6}}'MARKER'                 'INTEND'")
            in_int = False
            marker += 1
        entries = col_entries[v.name]
        if not entries:
            entries = [("COST", 0)]
        for i in range(0, len(entries), 2):
            chunk = entries[i : i + 2]
            line = f"    {v.name:<{w_name}}"
            for row, coef in chunk:
                line += f"{row:<{w_row}}{_fmt_num(coef):<14}"
            out.append(line.rstrip())
    if in_int:
        out.append(f"    MARKER{marker:<{w_name - 6}}'MARKER'                 'INTEND'")
    out.append("RHS")
    rhs_entries = [(c.name, c.rhs) for c in model.constraints if c.rhs != 0]
    for i in range(0, len(rhs_entries), 2):
        chunk = rhs_entries[i : i + 2]
        line = f"    {'RHS':<{w_name}}"
        for row, val in chunk:
            line += f"{row:<{w_row}}{_fmt_num(val):<14}"
        out.append(line.rstrip())
    out.append("BOUNDS")
    for v in variables:
        if v.kind == BINARY:
            out.append(f" BV {'BND':<{w_name - 1}}{v.name}")
        elif v.ub is not None and v.lb == v.ub:
            out.append(f" FX {'BND':<{w_name - 1}}{v.name:<{w_name}}{_fmt_num(v.lb)}")
        else:
            if v.lb != 0:
                out.append(f" LO {'BND':<{w_name - 1}}{v.name:<{w_name}}{_fmt_num(v.lb)}")
            if v.ub is not None:
                out.append(f" UP {'BND':<{w_name - 1}}{v.name:<{w_name}}{_fmt_num(v.ub)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# valuations

Valuation = dict[str, Num]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]
    objective: Fraction


def check_feasible(model: MilpModel, valuation: Valuation) -> FeasibilityReport:
    """Exact bound/constraint evaluation of a valuation (missing vars = 0).

    Integrality is not checked; the report covers bounds and linear
    constraints, and the objective includes the model constant and any
    quadratic terms.

    Raises:
        ValidationError: valuation names a variable the model lacks.
    """
    var_map = model.var_map()
    for name in valuation:
        if name not in var_map:
            raise ValidationError(f"valuation references unknown variable {name}")

    def val(name: str) -> Fraction:
        return Fraction(valuation.get(name, 0))

    violations: list[str] = []
    for v in model.variables:
        x = val(v.name)
        if x < v.lb or (v.ub is not None and x > v.ub):
            violations.append(f"bound {v.name}")
    for c in model.constraints:
        lhs = sum((val(name) * coef for name, coef in c.terms), Fraction(0))
        ok = lhs <= c.rhs if c.sense == "<=" else lhs >= c.rhs if c.sense == ">=" else lhs == c.rhs
        if not ok:
            violations.append(f"constraint {c.name}")
    objective = sum((val(v.name) * v.obj for v in model.variables), Fraction(model.obj_constant))
    for va, vb, coef in model.quad_terms:
        objective += val(va) * val(vb) * coef
    return FeasibilityReport(feasible=not violations, violations=tuple(violations), objective=objective)


def schedule_to_assignment(
    inst: Instance,
    sched: Schedule,
    kind: str,
    *,
    T: int | None = None,
    graph: FlowGraph | None = None,
    types: list[JobType] | None = None,
) -> Valuation:
    """Translate a schedule into a valuation of the matching model.

    kind 'ti' needs T; 'eaf' needs the flow network and its type table
    (the straight network is one with one type per job). Machines are
    read in their given processing order.

    Raises:
        MappingError: a start or completion time has no model variable,
            which signals the schedule fell outside the reduced network.
    """
    comp = completion_times(inst, sched)
    starts = {j: comp[j] - inst.job(j).p for j in comp}

    if kind == "ti":
        if T is None:
            raise ValueError("kind 'ti' needs T")
        valuation: Valuation = {}
        for j, s in starts.items():
            if s > T - inst.job(j).p:
                raise MappingError(f"job {j} starts at {s}, beyond T - p = {T - inst.job(j).p}")
            valuation[f"x_{j}_{s}"] = 1
        return valuation

    if kind != "eaf":
        raise ValueError(f"unknown kind {kind!r}")
    if graph is None or types is None:
        raise ValueError("kind 'eaf' needs the graph and its types")

    # arcs grouped by tail: a lookup key per arc would cost a tuple per arc
    out_arcs: dict[int, list[Arc]] = {}
    for arc in graph.arcs:
        out_arcs.setdefault(arc.tail, []).append(arc)

    def arc_at(tail: int, head: int, label: int) -> Arc | None:
        return next((a for a in out_arcs.get(tail, ()) if a.head == head and a.label == label), None)

    type_of: dict[int, int] = {}
    for tidx, jt in enumerate(types, start=1):
        for member in jt.members:
            type_of[member] = tidx

    used: dict[Arc, int] = {}
    for machine in sched.machines:
        t = 0
        for j in machine:
            p = inst.job(j).p
            arc = arc_at(t, t + p, type_of[j])
            if arc is None:
                raise MappingError(f"no arc for job {j} starting at {t} (label {type_of[j]})")
            used[arc] = used.get(arc, 0) + 1
            t += p
        if t < graph.T:
            arc = arc_at(t, graph.T, LOSS)
            if arc is None:
                raise MappingError(f"machine completing at {t} has no loss arc to T={graph.T}")
            used[arc] = used.get(arc, 0) + 1
        elif t > graph.T:
            raise MappingError(f"machine load {t} exceeds the horizon T={graph.T}")
    return {_arc_var(arc): count for arc, count in used.items()}


def valuation_to_flow(g: FlowGraph, valuation: Valuation) -> dict[Arc, int]:
    """Arc flows from a valuation over a graph's variables (rounded exact)."""
    by_name = {_arc_var(a): a for a in g.arcs}
    flow: dict[Arc, int] = {}
    for name, value in valuation.items():
        if name == _ONE:
            continue
        if name not in by_name:
            raise ValidationError(f"valuation references unknown arc variable {name}")
        v = Fraction(value)
        if v.denominator != 1:
            raise ValidationError(f"non-integral flow {value} on {name}")
        if v != 0:
            flow[by_name[name]] = int(v)
    return flow


def parse_solution(text: str) -> Valuation:
    """Read 'name value' lines; '#' starts a comment, blanks are skipped."""
    valuation: Valuation = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"solution line {lineno}: expected 'name value', got {line!r}")
        name, value = parts
        try:
            valuation[name] = Fraction(value)
        except ValueError:
            raise ValueError(f"solution line {lineno}: bad numeric value {value!r}") from None
    return valuation
