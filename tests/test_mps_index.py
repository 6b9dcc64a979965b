"""Named edge cases of the MPS writer's COLUMNS section.

Each model is built twice, as position rows and as the named-term rows of
``test_emit_reference``, and the MPS text must equal the reference's. The
case's own COLUMNS lines are checked as well, so a case says what it
covers even where the Hypothesis reference test would draw it rarely.
"""

from arcsched.milp import BINARY, CONTINUOUS, INTEGER, MilpModel, write_mps

from conftest import add_row, append_var, ruled, written
from test_emit_reference import RefConstraint, RefModel, Variable, ref_emit_mps


def twin(variables, rows, constant=0):
    """The MPS text of a model of ``variables`` (name, lb, ub, kind, obj) and
    ``rows`` (name, sense, rhs, positions, coefficients or None), checked
    against the reference; returns its COLUMNS lines."""
    new, ref = MilpModel(name="edge"), RefModel(name="edge")
    for v in variables:
        append_var(new, *v)
        ref.variables.append(Variable(*v))
    names = [v[0] for v in variables]
    for name, sense, rhs, cols, coefs in rows:
        add_row(new, name, cols, sense, rhs, coefs=coefs)
        terms = tuple((names[i], k) for i, k in zip(cols, [1] * len(cols) if coefs is None else coefs))
        ref.constraints.append(RefConstraint(name, sense, rhs, terms))
    new.obj_constant = ref.obj_constant = constant
    text = written(write_mps, ruled(new.validate()))
    assert text == ref_emit_mps(ref)
    return text.split("COLUMNS\n")[1].split("RHS\n")[0].splitlines()


def test_column_in_no_row_with_zero_cost_gets_cost_zero():
    lines = twin(
        [("x", 0, 5, INTEGER, 0), ("y", 0, 5, INTEGER, 2)],
        [("r", "<=", 4, [1], None)],
    )
    assert "    x         COST      0" in lines
    assert not any(line.startswith("    y") and "COST      0" in line for line in lines)


def test_repeated_positions_summing_to_zero_as_a_canonical_row():
    # the row [0, 1, 0, 1] with coefficients [2, 1, -2, 1], its repeats
    # summed and the zero sum dropped, as a builder would make it
    lines = twin([("x", 0, None, CONTINUOUS, 0), ("y", 0, None, CONTINUOUS, 1)], [("r", "=", 0, [1], [2])])
    assert lines == ["    x         COST      0", "    y         COST      1             r         2"]


def test_empty_row_adds_no_entry():
    lines = twin(
        [("x", 0, 1, BINARY, 3)],
        [("empty", ">=", 0, [], None), ("r", "<=", 1, [0], None)],
    )
    assert not any("empty" in line for line in lines)
    assert "    x         COST      3             r         1" in lines


def test_constant_column_one():
    lines = twin([("x", 0, 1, BINARY, 1)], [("r", "<=", 1, [0], None)], constant=7)
    # ONE is continuous, after the integer markers, with the constant as its cost
    assert lines[-1] == "    ONE       COST      7"
    assert lines[-2].strip().startswith("MARKER") and "'INTEND'" in lines[-2]


def test_column_with_an_odd_number_of_entries():
    lines = twin(
        [("x", 0, None, CONTINUOUS, 1)],
        [("a", "<=", 1, [0], None), ("b", "<=", 1, [0], [-1])],
    )
    # COST, a and b: the second line holds one entry, its padding cut
    assert lines == ["    x         COST      1             a         1", "    x         b         -1"]
