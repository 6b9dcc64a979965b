"""LP and MPS text of column-block models against the named-term reference.

The writers format whole blocks at a time, with paths that depend on the
block's objective type (an int ``array``, a ``range``, a list) and on a
row's coefficients (none, only 1 and -1, or others), and
they join lines into runs, where an empty run would write a blank line.
Each model here is turned into the reference's named-term records, one
per column of its blocks, and both texts must be equal byte for byte.
"""

from array import array
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched.milp import BINARY, CONTINUOUS, INTEGER, MilpModel, VarBlock, write_lp, write_mps

from conftest import add_row, append_var, ruled, written
from test_emit_reference import NUMS, RefConstraint, RefModel, Variable, ref_emit_lp, ref_emit_mps


def reference(model: MilpModel) -> RefModel:
    """The model as the reference's records: one Variable per column, rows as (name, coefficient) terms."""
    variables = [Variable(name, b.lb, b.ub, b.kind, obj) for b in model.blocks for name, obj in zip(b.names(), b.obj)]
    ref = RefModel(name=model.name, variables=variables, obj_constant=model.obj_constant)
    names = [v.name for v in ref.variables]
    for c in model.constraints:
        ref.constraints.append(RefConstraint(c.name, c.sense, c.rhs, tuple((names[i], k) for i, k in c.terms)))
    ref.quad_terms = [(names[a], names[b], k) for a, b, k in model.quad_terms]
    return ref


def block(kind, lb, ub, obj, prefix):
    names = tuple(f"{prefix}{i}" for i in range(len(obj)))
    return VarBlock(kind, lb, ub, obj, lambda: iter(names), None)  # ``ruled`` gives its column rule


def both_texts(model: MilpModel) -> tuple[str, str]:
    """LP and MPS text of ``model``, each checked against the reference and for blank lines."""
    model.validate()
    ref = reference(model)
    lp, mps = written(write_lp, model), written(write_mps, ruled(model))
    assert lp == ref_emit_lp(ref)
    assert mps == ref_emit_mps(ref)
    assert "\n\n" not in lp and "\n\n" not in mps
    return lp, mps


# ---------------------------------------------------------------------------
# named cases: each leaves one section, or one block's share of it, empty


def test_model_with_no_rows():
    model = MilpModel(name="norows")
    model.blocks.append(block(INTEGER, 0, 4, array("q", [0, 3, 5]), "x"))
    lp, mps = both_texts(model)
    assert "Subject To\nBounds\n" in lp
    assert "ROWS\n N  COST\nCOLUMNS\n" in mps
    assert "RHS\nBOUNDS\n" in mps


def test_zero_length_block():
    model = MilpModel(name="empty")
    model.blocks.append(block(CONTINUOUS, 0, None, [Fraction(1, 2)], "a"))
    model.blocks.append(block(INTEGER, 0, 3, array("q"), "none"))
    model.blocks.append(block(INTEGER, 1, 3, range(2, 8, 3), "b"))
    model.blocks.append(block(CONTINUOUS, 0, 3, [], "gap"))  # splits no run of integer columns
    model.blocks.append(block(BINARY, 0, 1, range(0, 6, 3), "c"))
    model.blocks.append(block(BINARY, 0, 1, range(0), "nothing"))
    add_row(model, "r", [0, 1, 2, 4], "<=", 4, coefs=[1, -1, 2, 1])
    lp, mps = both_texts(model)
    assert all(name not in lp + mps for name in ("none", "gap", "nothing"))
    assert mps.count("'INTORG'") == 1


def test_model_of_zero_length_blocks_only():
    model = MilpModel(name="void")
    model.blocks.append(block(INTEGER, 0, 3, array("q"), "none"))
    add_row(model, "r", [], ">=", 0)
    lp, mps = both_texts(model)
    assert " obj: 0\n" in lp
    assert "COLUMNS\nRHS\nBOUNDS\nENDATA\n" in mps


def test_only_block_is_binaries():
    model = MilpModel(name="bin")
    model.blocks.append(block(BINARY, 0, 1, range(0, 12, 3), "y"))
    add_row(model, "pick", range(4), "=", 1)
    lp, mps = both_texts(model)
    assert "Bounds" not in lp and "Generals" not in lp
    assert mps.count(" BV ") == 4


def test_block_with_all_zero_objective():
    model = MilpModel(name="zero")
    model.blocks.append(block(INTEGER, 0, 2, array("q", [0] * 4), "z"))
    add_row(model, "r", [1, 2], "<=", 1)
    lp, mps = both_texts(model)
    assert " obj: 0\n" in lp
    # only the columns in no row carry a COST entry, and it is 0
    assert [line.split()[0] for line in mps.splitlines() if "COST      0" in line] == ["z0", "z3"]


# ---------------------------------------------------------------------------
# Hypothesis: multi-variable blocks of every objective type


def int_arrays(size):
    # half the time only 0 and values of 2 and more, as the flow objectives hold
    values = st.one_of(st.integers(-5, 5), st.one_of(st.just(0), st.integers(2, 60)))
    return st.lists(values, min_size=size, max_size=size).map(lambda v: array("q", v))


def ranges(size):
    return st.builds(
        lambda start, step: range(start, start + step * size, step),
        st.integers(-6, 6),
        st.sampled_from([-2, -1, 1, 2, 7]),
    )


def objectives(size):
    return st.one_of(int_arrays(size), ranges(size), st.lists(NUMS, min_size=size, max_size=size))


# a row's coefficients: all 1 (None), only 1 and -1 as flow rows, or others
ROW_COEFS = st.sampled_from([None, [1, -1], [-2, -1, 1, 2]])


@st.composite
def block_models(draw):
    model = MilpModel(name="blocks")
    for b in range(draw(st.integers(1, 4))):
        size = draw(st.integers(0, 8))
        kind = draw(st.sampled_from([BINARY, INTEGER, CONTINUOUS]))
        lb = draw(st.integers(-3, 3))
        ub = draw(st.one_of(st.none(), st.just(lb), st.integers(lb, lb + 5)))
        prefix = draw(st.sampled_from(["x", "flow_var_with_a_long_name_", "L"]))
        model.blocks.append(block(kind, lb, ub, draw(objectives(size)), f"{prefix}{b}_"))
    n = model.num_vars
    for r in range(draw(st.integers(0, 5))):
        cols = sorted(draw(st.lists(st.integers(0, n - 1), max_size=min(n, 30), unique=True))) if n else []
        values = draw(ROW_COEFS)
        coefs = None if values is None else draw(st.lists(st.sampled_from(values), min_size=len(cols), max_size=len(cols)))
        add_row(model, f"row{r}", cols, draw(st.sampled_from(["<=", "=", ">="])), draw(NUMS), coefs=coefs)
    model.obj_constant = draw(st.one_of(st.just(0), NUMS))
    return model


@settings(max_examples=150, deadline=None)
@given(model=block_models())
def test_block_models_match_named_term_reference(model):
    both_texts(model)


# ---------------------------------------------------------------------------
# Hypothesis: a row off the contract (positions that do not strictly rise,
# or a zero coefficient) in its canonical form is emitted as the reference
# emits the row itself; the builders make only canonical rows, and
# ``test_milp.py::TestRecords::test_builders_keep_the_row_contract`` holds
# them to it


@st.composite
def faulty_rows(draw):
    """(positions, coefficients or None) of a row that breaks the contract
    one way: a repeated position, a falling pair or a zero coefficient."""
    fault = draw(st.sampled_from(["repeat", "falling", "zero"]))
    cols = sorted(draw(st.lists(st.integers(0, 7), min_size=2 if fault == "falling" else 1, unique=True)))
    coefs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(cols), max_size=len(cols)))
    k = draw(st.integers(0, len(cols) - (2 if fault == "falling" else 1)))
    if fault == "repeat":
        cols.insert(k + 1, cols[k])
        coefs.insert(k + 1, draw(st.integers(-4, 4)))
    elif fault == "falling":
        cols[k : k + 2] = cols[k + 1], cols[k]
        coefs[k : k + 2] = coefs[k + 1], coefs[k]
    else:
        coefs[k] = 0
    if fault != "zero" and set(coefs) == {1} and draw(st.booleans()):
        coefs = None  # every entry 1
    return cols, coefs


def canonical(cols, coefs):
    """The row with its positions sorted, repeats summed and zero sums dropped."""
    acc = {}
    for i, k in zip(cols, [1] * len(cols) if coefs is None else coefs):
        acc[i] = acc.get(i, 0) + k
    kept = sorted(i for i in acc if acc[i])
    return kept, [acc[i] for i in kept]


def row_model(row, objs):
    """Eight integer variables, a canonical row on each side of ``row`` (named "bad")."""
    model = MilpModel(name="rows")
    for i, obj in enumerate(objs):
        append_var(model, f"v{i}", 0, 9, INTEGER, obj)
    add_row(model, "before", [0, 3], "<=", 5, coefs=[2, -1])
    add_row(model, "bad", row[0], ">=", 1, coefs=row[1])
    add_row(model, "after", [1, 7], "=", 2)
    return model


@settings(max_examples=150, deadline=None)
@given(row=faulty_rows(), objs=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_canonical_rows_match_the_reference(row, objs):
    fixed = row_model(canonical(*row), objs).validate()
    ref = reference(fixed)
    assert written(write_lp, fixed) == ref_emit_lp(ref)
    # the reference sums repeats and drops zeros in MPS, so the faulty
    # row's reference text is the canonical row's
    assert written(write_mps, ruled(fixed)) == ref_emit_mps(ref) == ref_emit_mps(reference(row_model(row, objs)))
