"""Position-based emission and exact checks against the named-term code.

Below are copies of the LP and MPS emitters and ``check_feasible`` as
they were when a variable was a named record and a row held one
``(name, coefficient)`` tuple per nonzero.
Hypothesis draws hand-built models (empty rows, long names, negative
coefficients, Fraction objectives, bounds and right-hand sides; rows with
rising positions and nonzero coefficients, the only rows the builders
make) and builds each twice: as today's position rows and as
named-term rows for the reference. Both must give the same bytes and the
same feasibility report; today's check reads the valuation as one value
per variable position, the reference by name.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched.instance import ValidationError
from arcsched.milp import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    MilpModel,
    UnsupportedFormatError,
    check_feasible,
    write_lp,
    write_mps,
)

from conftest import add_row, append_var, ruled, written

# ---------------------------------------------------------------------------
# reference: the named-term records and the code that read them


@dataclass(frozen=True)
class Variable:
    name: str
    lb: object
    ub: object
    kind: str
    obj: object = 0


@dataclass(frozen=True)
class RefConstraint:
    name: str
    sense: str
    rhs: object
    terms: tuple


@dataclass
class RefModel:
    name: str
    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    obj_constant: object = 0
    quad_terms: list = field(default_factory=list)


def ref_fmt_num(x):
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
        k = max(twos, fives)
        scaled = abs(x.numerator) * 10**k // x.denominator
        digits = str(scaled).rjust(k + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{digits[:-k]}.{digits[-k:]}" if k else f"{sign}{digits}"
    return format(float(x), ".15g")


def ref_wrap(parts, indent="   ", width=72):
    lines = []
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


def ref_terms_text(terms, lead):
    parts = []
    first = True
    for name, coef in terms:
        if coef == 0:
            continue
        mag = abs(coef)
        body = name if mag == 1 else f"{ref_fmt_num(mag)} {name}"
        if first:
            parts.append(body if coef > 0 else f"- {body}")
            first = False
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    if not parts:
        parts = ["0"]
    return ref_wrap([lead + parts[0]] + parts[1:], indent="   ")


def ref_with_constant(model):
    variables = list(model.variables)
    obj_terms = [(v.name, v.obj) for v in variables if v.obj != 0]
    if model.obj_constant != 0:
        variables.append(Variable("ONE", 1, 1, CONTINUOUS, obj=model.obj_constant))
        obj_terms.append(("ONE", model.obj_constant))
    return variables, obj_terms


def ref_emit_lp(model):
    variables, obj_terms = ref_with_constant(model)
    out = [f"\\ {model.name}", "Minimize"]
    obj_lines = ref_terms_text(obj_terms, " obj: ")
    if model.quad_terms:
        quad_parts = ["["]
        first = True
        for va, vb, coef in model.quad_terms:
            doubled = 2 * coef
            mag = abs(doubled)
            body = f"{ref_fmt_num(mag)} {va} * {vb}"
            if first:
                quad_parts.append(body if doubled > 0 else f"- {body}")
                first = False
            else:
                quad_parts.append(f"+ {body}" if doubled > 0 else f"- {body}")
        quad_parts.append("] / 2")
        obj_lines.extend(ref_wrap(["   + " + quad_parts[0]] + quad_parts[1:], indent="   "))
    out.extend(obj_lines)
    out.append("Subject To")
    for c in model.constraints:
        lines = ref_terms_text(list(c.terms), f" {c.name}: ")
        lines[-1] += f" {c.sense} {ref_fmt_num(c.rhs)}"
        out.extend(lines)
    bound_lines = []
    for v in variables:
        if v.kind == BINARY:
            continue
        if v.ub is not None and v.lb == v.ub:
            bound_lines.append(f" {v.name} = {ref_fmt_num(v.lb)}")
        elif v.ub is None:
            if v.lb != 0:
                bound_lines.append(f" {v.name} >= {ref_fmt_num(v.lb)}")
        else:
            bound_lines.append(f" {ref_fmt_num(v.lb)} <= {v.name} <= {ref_fmt_num(v.ub)}")
    if bound_lines:
        out.append("Bounds")
        out.extend(bound_lines)
    binaries = [v.name for v in variables if v.kind == BINARY]
    generals = [v.name for v in variables if v.kind == INTEGER]
    if binaries:
        out.append("Binaries")
        out.extend(ref_wrap([" " + binaries[0]] + binaries[1:], indent="  "))
    if generals:
        out.append("Generals")
        out.extend(ref_wrap([" " + generals[0]] + generals[1:], indent="  "))
    out.append("End")
    return "\n".join(out) + "\n"


def ref_emit_mps(model):
    if model.quad_terms:
        raise UnsupportedFormatError("MPS cannot carry a quadratic objective; emit LP instead")
    variables, _ = ref_with_constant(model)
    col_entries = {v.name: [] for v in variables}
    for v in variables:
        if v.obj != 0:
            col_entries[v.name].append(("COST", v.obj))
    for c in model.constraints:
        acc = {}
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
                line += f"{row:<{w_row}}{ref_fmt_num(coef):<14}"
            out.append(line.rstrip())
    if in_int:
        out.append(f"    MARKER{marker:<{w_name - 6}}'MARKER'                 'INTEND'")
    out.append("RHS")
    rhs_entries = [(c.name, c.rhs) for c in model.constraints if c.rhs != 0]
    for i in range(0, len(rhs_entries), 2):
        chunk = rhs_entries[i : i + 2]
        line = f"    {'RHS':<{w_name}}"
        for row, val in chunk:
            line += f"{row:<{w_row}}{ref_fmt_num(val):<14}"
        out.append(line.rstrip())
    out.append("BOUNDS")
    for v in variables:
        if v.kind == BINARY:
            out.append(f" BV {'BND':<{w_name - 1}}{v.name}")
        elif v.ub is not None and v.lb == v.ub:
            out.append(f" FX {'BND':<{w_name - 1}}{v.name:<{w_name}}{ref_fmt_num(v.lb)}")
        else:
            if v.lb != 0:
                out.append(f" LO {'BND':<{w_name - 1}}{v.name:<{w_name}}{ref_fmt_num(v.lb)}")
            if v.ub is not None:
                out.append(f" UP {'BND':<{w_name - 1}}{v.name:<{w_name}}{ref_fmt_num(v.ub)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def ref_check_feasible(model, valuation):
    var_map = {v.name: v for v in model.variables}
    for name in valuation:
        if name not in var_map:
            raise ValidationError(f"valuation references unknown variable {name}")

    def val(name):
        return Fraction(valuation.get(name, 0))

    violations = []
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
    return not violations, tuple(violations), objective


# ---------------------------------------------------------------------------
# random hand-built models, each as a (position model, reference model) pair

SHORT = st.text(alphabet="abxyzXY_019 ", min_size=1, max_size=10)  # a space splits no part
LONG = st.text(alphabet="abxyzXY_019 ", min_size=60, max_size=90)  # alone exceed a 72-column line
NAMES = st.one_of(SHORT, SHORT, SHORT, LONG)
NUMS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=16),  # 1/3 and 3/8 both occur
)


@st.composite
def model_pairs(draw, quadratic: bool):
    names = draw(st.lists(NAMES, min_size=1, max_size=12, unique=True))
    new, ref = MilpModel(name="hand"), RefModel(name="hand")
    for name in names:
        kind = draw(st.sampled_from([BINARY, INTEGER, CONTINUOUS]))
        lb = draw(NUMS)
        ub = draw(st.one_of(st.none(), st.just(lb), NUMS.map(lambda x, lb=lb: lb + abs(x))))
        obj = draw(st.one_of(st.just(0), NUMS))
        append_var(new, name, lb, ub, kind, obj)
        ref.variables.append(Variable(name, lb, ub, kind, obj))
    position = st.integers(0, len(names) - 1)
    for row_name in draw(st.lists(NAMES, max_size=7, unique=True)):
        cols = sorted(draw(st.lists(position, max_size=len(names), unique=True)))  # empty rows included
        coefs = draw(st.one_of(
            st.none(),  # every entry 1
            st.lists(st.integers(-4, 4).filter(bool), min_size=len(cols), max_size=len(cols)),
        ))
        sense = draw(st.sampled_from(["<=", "=", ">="]))
        rhs = draw(NUMS)
        add_row(new, row_name, cols, sense, rhs, coefs=coefs)
        row_coefs = [1] * len(cols) if coefs is None else coefs
        terms = tuple((names[i], k) for i, k in zip(cols, row_coefs))
        ref.constraints.append(RefConstraint(row_name, sense, rhs, terms))
    new.obj_constant = ref.obj_constant = draw(st.one_of(st.just(0), NUMS))
    if quadratic:
        for a, b, coef in draw(st.lists(st.tuples(position, position, NUMS), max_size=30)):
            new.quad_terms.append((a, b, coef))
            ref.quad_terms.append((names[a], names[b], coef))
    return new.validate(), ref, names


@settings(max_examples=150, deadline=None)
@given(pair=model_pairs(quadratic=True))
def test_emit_lp_matches_named_term_reference(pair):
    new, ref, _ = pair
    assert written(write_lp, new) == ref_emit_lp(ref)


@settings(max_examples=150, deadline=None)
@given(pair=model_pairs(quadratic=False))
def test_emit_mps_matches_named_term_reference(pair):
    new, ref, _ = pair
    assert written(write_mps, ruled(new)) == ref_emit_mps(ref)


def test_names_that_start_with_a_sign():
    # NAMES has no sign, so no drawn model tells a sign cut from a term from
    # one cut from a name: each of these names comes first in an all-ones
    # row, in a row of ones and minus ones, and in the objective
    names = ["+ a", "- b", "c"]
    new, ref = MilpModel(name="signs"), RefModel(name="signs")
    for name, kind, obj in zip(names, [BINARY, INTEGER, CONTINUOUS], [1, -1, 2]):
        append_var(new, name, 0, 5, kind, obj)
        ref.variables.append(Variable(name, 0, 5, kind, obj))
    rows = [("ones", [0, 1, 2], None), ("tail", [1, 2], None), ("pm", [0, 1, 2], [1, -1, 1]), ("mp", [1, 2], [-1, 1])]
    for row_name, cols, coefs in rows:
        add_row(new, row_name, cols, ">=", 1, coefs=coefs)
        terms = tuple(zip([names[i] for i in cols], coefs or [1] * len(cols)))
        ref.constraints.append(RefConstraint(row_name, ">=", 1, terms))
    new.validate()
    assert written(write_lp, new) == ref_emit_lp(ref)
    assert " ones: + a + - b + c >= 1\n" in written(write_lp, new)
    assert written(write_mps, ruled(new)) == ref_emit_mps(ref)


@settings(max_examples=50, deadline=None)
@given(pair=model_pairs(quadratic=True))
def test_emit_mps_refuses_quadratic_models_alike(pair):
    new, ref, _ = pair
    if not new.quad_terms:
        return
    with pytest.raises(UnsupportedFormatError):
        written(write_mps, new)
    with pytest.raises(UnsupportedFormatError):
        ref_emit_mps(ref)


@settings(max_examples=150, deadline=None)
@given(pair=model_pairs(quadratic=True), data=st.data())
def test_check_feasible_matches_named_term_reference(pair, data):
    new, ref, names = pair
    chosen = data.draw(st.lists(st.sampled_from(names), unique=True))
    valuation = {name: data.draw(NUMS) for name in chosen}
    report = check_feasible(ruled(new), [valuation.get(n, 0) for n in names])
    assert (report.feasible, report.violations, report.objective) == ref_check_feasible(ref, valuation)


@settings(max_examples=50, deadline=None)
@given(pair=model_pairs(quadratic=False), extra=st.integers(-3, 3).filter(bool))
def test_wrong_length_valuation_rejected(pair, extra):
    new, _, names = pair
    with pytest.raises(ValidationError):
        check_feasible(new, [0] * max(0, len(names) + extra))
