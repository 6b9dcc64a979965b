import re
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from array import array
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcsched import cli, instance, milp
from arcsched.cli import _build_model
from arcsched.bounds import horizon, horizon_T, time_windows, type_time_windows
from arcsched.flowgraph import build_eaf_graph, write_dot
from arcsched.heuristic import IlsConfig, ils
from arcsched.instance import (
    BYTES_PER,
    ModelSizeError,
    Schedule,
    ValidationError,
    evaluate_schedule,
    generate_instance,
    group_job_types,
    make_instance,
    sort_machine_wspt,
)
from arcsched.milp import (
    BINARY,
    INTEGER,
    MappingError,
    MilpModel,
    UnsupportedFormatError,
    VarBlock,
    _wrap,
    assignment_to_schedule,
    build_ciqp,
    build_eaf_model,
    build_pti,
    build_ti,
    check_feasible,
    parse_solution,
    schedule_to_assignment,
    ti_offsets,
    write_lp,
    write_mps,
)
from arcsched.oracle import brute_force_optimal
from arcsched.rng import SplitMix64

from conftest import DEMO_TEXT, add_row, append_var, by_position, ruled, straight_network, transpose, written

DEMO_OPT = Schedule(machines=((1, 3, 4), (2,)))


def columns(model) -> list:
    """(name, block, objective coefficient) per variable, in position order."""
    return [(name, b, obj) for b in model.blocks for name, obj in zip(b.names(), b.obj)]


def af_context(inst):
    g = straight_network(inst)
    return g, build_eaf_model(g)


def eaf_context(inst):
    hor = horizon(inst)
    types = group_job_types(inst)
    windows = type_time_windows(types, time_windows(inst, hor.T))
    g = build_eaf_graph(inst, hor.T, types, windows, hor.T_prime)
    return g, build_eaf_model(g)


FLAGS = ("no_windows", "no_types", "no_tprime", "strict_figure")


def case_instance(n: int, m: int, seed: int):
    """The seeded instance of an ``every_builder_model`` case."""
    return generate_instance(n=n, m=m, p_max=6, w_max=9, seed=seed)


def every_builder_model():
    """(case, model) for 168 models built through the CLI's dispatch: ti,
    pti, ciqp, af with and without --strict-figure, and eaf under all 16
    --no-*/--strict-figure combinations, on 8 seeded shapes with n = 1,
    m = 1 and m > n. A case is (n, m, seed, form, flags)."""
    runs = [("ti", ()), ("pti", ()), ("ciqp", ()), ("af", ()), ("af", ("strict_figure",))]
    runs += [("eaf", on) for k in range(len(FLAGS) + 1) for on in combinations(FLAGS, k)]
    shapes = [(1, 1), (1, 3), (2, 5), (5, 1), (6, 2), (7, 3), (9, 4), (3, 7)]
    for seed, (n, m) in enumerate(shapes, start=1):
        inst = case_instance(n, m, seed)
        for form, on in runs:
            yield (n, m, seed, form, on), _build_model(inst, form, Namespace(**{f: f in on for f in FLAGS}))[0]


class TestRecords:
    def test_rows_hold_positions_and_integer_coefficients(self):
        model = MilpModel(name="tiny")
        x = append_var(model, "x", 0, 1, BINARY)
        y = append_var(model, "y", 0, 5, INTEGER)
        add_row(model, "ones", [x, y], "<=", 1)
        add_row(model, "mixed", [x, y], "=", Fraction(1, 2), coefs=[-1, 2])
        model.quad_terms.append((x, y, Fraction(3, 4)))
        model.validate()
        assert (x, y) == (0, 1)
        rows = list(model.constraints)
        assert rows[0].coefs is None  # all-ones rows store no coefficients
        assert rows[0].terms == [(0, 1), (1, 1)]
        assert rows[1].terms == [(0, -1), (1, 2)]
        assert ruled(model).nonzeros() == 2 + 2 + 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda model: append_var(model, "y", 2, 1, INTEGER), "variable y: lb 2 > ub 1"),
            (lambda model: add_row(model, "c", [0], "<", 1), "constraint c: bad sense '<'"),
        ],
        ids=["lb-above-ub", "bad-sense"],
    )
    def test_record_refused(self, edit, message):
        model = MilpModel(name="tiny")
        append_var(model, "x", 0, 1, BINARY)
        edit(model)
        with pytest.raises(ValidationError, match=re.escape(message)):
            model.validate()

    def test_builders_name_variables_distinctly_and_never_one(self):
        # validate checks no name: the writers and the solution lookup rely
        # on every builder naming its variables by a rule over distinct
        # arguments, none of them the constant column's name ONE
        for case, model in every_builder_model():
            names = list(model.names())
            assert len(set(names)) == len(names) and "ONE" not in names, case

    def test_builders_keep_the_row_contract(self):
        # validate reads each block and row record, never a row's entries:
        # the writers rely on every builder making each row's positions
        # strictly rise below num_vars and its coefficients nonzero
        for case, model in every_builder_model():
            n = model.num_vars
            assert all(b.ub is None or b.lb <= b.ub for b in model.blocks), case
            for c in model.constraints:
                assert isinstance(c.cols, array) and c.cols.typecode == "I", (case, c.name)
                assert all(a < b for a, b in zip(c.cols, c.cols[1:])) and (not c.cols or c.cols[-1] < n), (case, c.name)
                if c.coefs is not None:
                    assert isinstance(c.coefs, array) and c.coefs.typecode == "q", (case, c.name)
                    assert len(c.coefs) == len(c.cols) and 0 not in c.coefs, (case, c.name)
            assert all(0 <= a < n and 0 <= b < n for a, b, _ in model.quad_terms), case

    @staticmethod
    def rule_entries(rule, size):
        """Each column's (row position, coefficient) entries, as ``rule`` gives them."""
        entries = [[] for _ in range(size)]
        for rows, coefs in rule.slots:
            rows = list(rows)
            coefs = [coefs] * size if isinstance(coefs, int) else list(coefs)
            assert len(rows) == len(coefs) == size
            for column, r, k in zip(entries, rows, coefs):
                column.append((r, k))
        return entries

    def test_column_rules_are_the_transpose_of_the_rows(self):
        # the MPS writer reads COLUMNS from each block's rule, never from the
        # rows: every builder's rule must give each column's entries, in row
        # order, and its widest name, as the rows and the names do
        empty = ones = 0
        for case, model in every_builder_model():
            entries = transpose(model)
            start = 0
            for b in model.blocks:
                rule = b.columns()
                assert self.rule_entries(rule, len(b)) == entries[start : start + len(b)], case
                assert rule.width == max(map(len, b.names()), default=0), case
                empty += not len(b)
                start += len(b)
            if model.obj_constant:  # the constant column, in no row
                one = milp._with_constant(model)[-1]
                assert list(one.names()) == ["ONE"], case
                assert self.rule_entries(one.columns(), 1) == [[]] and one.columns().width == 3, case
                ones += 1
        assert empty and ones

    @staticmethod
    def counted(model, calls: list) -> MilpModel:
        """``model`` with each row rule appending to ``calls`` when it runs
        over the sequence it is handed."""
        model.rows = [
            block._replace(entries=lambda seq, rule=block.entries: calls.append(rule) or rule(seq)) for block in model.rows
        ]
        return model

    @staticmethod
    def valuations(case, model) -> Iterator[list]:
        """A zero valuation of a case's ``model``, then, for ti, af and eaf,
        the one that encodes an ILS schedule of its instance, checked
        feasible at the schedule's value, where the schedule maps."""
        yield [0] * model.num_vars
        n, m, seed, form, on = case
        if form in ("ti", "af", "eaf"):
            inst = case_instance(n, m, seed)
            graph = cli._flow_network(inst, form, Namespace(**{f: f in on for f in FLAGS})) if form != "ti" else None
            sched = ils(inst, IlsConfig(seed=1, iterations=3)).schedule
            try:
                values = schedule_to_assignment(inst, sched, horizon_T(inst), graph)
            except MappingError:  # an idle machine has no t = 0 loss arc under --strict-figure
                assert "strict_figure" in on and m > n, case
                return
            yield values
            report = check_feasible(model, values)
            assert report.feasible and report.objective == evaluate_schedule(inst, sched), case

    def test_mps_write_runs_no_row_rule(self):
        # the MPS writer reads each row's head, and COLUMNS the column rules;
        # the exact check and nonzeros() read the heads and the column rules
        # too: no row's entries are made (ciqp's MPS is refused before a write)
        mapped = 0
        for case, model in every_builder_model():
            calls = []
            self.counted(model, calls)
            try:
                write_mps(model, Discard())
            except UnsupportedFormatError:
                assert model.quad_terms, case
            model.nonzeros()
            for values in self.valuations(case, model):
                check_feasible(model, values)
                mapped += any(values)
            assert calls == [], case
            list(model.constraints)  # each read makes the rows
            assert len(calls) == len(model.rows) > 0, case
        assert mapped > 100

    def test_row_rules_read_the_sequence_they_are_handed(self, monkeypatch):
        # the LP writer hands each row rule the names, and constraints the
        # positions: over the names a rule must yield, row by row, the names
        # of the positions it yields over the positions, with the same
        # coefs; and an LP write reads no Constraint
        for case, model in every_builder_model():
            names = list(model.names())
            positions = array("I", range(model.num_vars))
            for block in model.rows:
                for (row, coefs), (cols, same) in zip(block.entries(names), block.entries(positions), strict=True):
                    assert list(row) == [names[i] for i in cols], case
                    assert coefs == same, case

        def unread(model):
            raise AssertionError("the LP writer read MilpModel.constraints")

        monkeypatch.setattr(MilpModel, "constraints", property(unread))
        for case, model in every_builder_model():
            assert written(write_lp, model).endswith("End\n"), case

    def test_stated_counts_are_the_rules_entries(self):
        # nonzeros() counts the column rules' entries and num_rows the heads,
        # so the row rules must make as many rows and entries as those state
        for case, model in every_builder_model():
            rows = list(model.constraints)
            assert sum(len(c.cols) for c in rows) + len(model.quad_terms) == model.nonzeros(), case
            assert len(rows) == model.num_rows == len(list(model.heads())), case

    def test_solve_external_runs_the_flow_rule_once(self, tmp_path, monkeypatch, capsys):
        # solve-external writes LP and then checks the solution exactly: the
        # LP write runs the flow rule once, over the names, and the exact
        # check reads the column rules, so no other run is made
        calls = []
        monkeypatch.setattr(milp, "build_eaf_model", lambda g: self.counted(build_eaf_model(g), calls))
        solver = tmp_path / "solver.py"  # writes the demo's optimal flow
        solver.write_text(
            "import sys\n"
            "names = 'x_0_2_1 x_2_3_3 x_3_7_4 L_7 x_0_5_2 L_5'.split()\n"
            "with open(sys.argv[2], 'w') as f:\n"
            "    f.writelines(f'{name} 1\\n' for name in names)\n",
            encoding="utf-8",
        )
        (tmp_path / "demo.txt").write_text(DEMO_TEXT, encoding="utf-8")
        argv = ["solve-external", "--in", str(tmp_path / "demo.txt"), "--form", "af"]
        assert cli.main([*argv, "--solver-cmd", f"{sys.executable} {solver} {{model}} {{solution}}"]) == 0
        assert "objective: 67" in capsys.readouterr().out
        assert len(calls) == 1


class TestBuilderGuard:
    @pytest.mark.parametrize("form", ["ti", "pti", "ciqp"])
    @pytest.mark.parametrize("jobs, m", [([(2, 4), (5, 7), (1, 1), (4, 3)], 2), ([(3, 1), (4, 2)], 5)],
                             ids=["demo", "m-above-n"])
    def test_refused_before_the_model(self, form, jobs, m, monkeypatch):
        # each builder prices its exact nonzeros (ti also its rows) at the
        # rates of instance.BYTES_PER, over the machines it builds, before it
        # makes a MilpModel: a byte under that price is refused with no model
        # made, and at the price the model is built
        inst = make_instance(m, jobs)
        T = horizon_T(inst)
        build = {"ti": lambda: build_ti(inst, T), "pti": lambda: build_pti(inst, T), "ciqp": lambda: build_ciqp(inst)}[form]
        rows = lambda model: model.num_rows * BYTES_PER["ti row"] if form == "ti" else 0
        price = lambda model: model.nonzeros() * BYTES_PER[f"{form} nonzero"] + rows(model)
        need = price(build())
        made = []
        monkeypatch.setattr(milp, "MilpModel", lambda name: made.append(name) or MilpModel(name))
        monkeypatch.setattr(instance, "MAX_MODEL_BYTES", need - 1)
        with pytest.raises(ModelSizeError, match=f"^form {form} model may hold "):
            build()
        assert made == []
        monkeypatch.setattr(instance, "MAX_MODEL_BYTES", need)
        assert price(build()) == need and len(made) == 1


class TestBuildTi:
    def test_demo_counts(self, demo):
        model = build_ti(demo, 8)
        assert model.num_vars == 24  # 7 + 4 + 8 + 5 start binaries
        assert len(list(model.constraints)) == 12  # 4 assignment + 8 capacity
        assert model.obj_constant == 56

    def test_single_job_model(self):
        inst = make_instance(1, [(3, 5)])
        model = build_ti(inst, 3)
        assert list(model.names()) == ["x_1_0"]
        assert model.obj_constant == 15

    def test_demo_optimal_valuation(self, demo):
        model = build_ti(demo, 8)
        valuation = {"x_1_0": 1, "x_2_0": 1, "x_3_2": 1, "x_4_3": 1}
        report = check_feasible(model, by_position(model, valuation))
        assert report.feasible
        assert report.objective == 67

    def test_capacity_terms_clamped_to_variable_range(self, demo):
        model = build_ti(demo, 8)
        for c in model.constraints:
            for pos, _ in c.terms:
                assert 0 <= pos < model.num_vars


class TestBuildCiqp:
    def test_demo_counts(self, demo):
        model = build_ciqp(demo)
        assert model.num_vars == 8
        assert len(list(model.constraints)) == 4
        assert len(model.quad_terms) == 12  # 6 ordered pairs x 2 machines

    def test_single_machine_two_jobs_objective(self):
        inst = make_instance(1, [(3, 5), (4, 2)])  # job 1 precedes job 2
        model = build_ciqp(inst)
        report = check_feasible(model, by_position(model, {"x_1_1": 1, "x_2_1": 1}))
        assert report.feasible
        # w1 p1 + w2 (p2 + p1)
        assert report.objective == 5 * 3 + 2 * (4 + 3)

    def test_symmetric_relaxation_tight(self, demo):
        valuation = {f"x_{j}_{k}": Fraction(1, 2) for j in range(1, 5) for k in (1, 2)}
        model = build_ciqp(demo)
        report = check_feasible(model, by_position(model, valuation))
        assert report.feasible  # every assignment row holds with equality

    def test_objective_matches_schedule_eval(self, demo):
        model = build_ciqp(demo)
        valuation = {"x_1_1": 1, "x_3_1": 1, "x_4_1": 1, "x_2_2": 1}
        report = check_feasible(model, by_position(model, valuation))
        assert report.objective == 67


class TestBuildPti:
    def test_demo_variable_count(self, demo):
        model = build_pti(demo, 8)
        assert model.num_vars == 4 * 2 * 8 + 8

    def test_objective_coefficient_example(self):
        inst = make_instance(1, [(2, 4)])
        model = build_pti(inst, 4)
        coef = next(obj for name, _, obj in columns(model) if name == "x_1_1_3")
        assert coef == 7  # (4/2) * (3 + 1/2)

    def test_unit_job_coefficient(self):
        inst = make_instance(1, [(1, 9)])
        model = build_pti(inst, 1)
        coef = next(obj for name, _, obj in columns(model) if name == "x_1_1_1")
        assert coef == 9

    def test_preemptive_split_feasible(self):
        # one job split across the horizon on its machine prices like the
        # non-preemptive run when parts are contiguous
        inst = make_instance(1, [(2, 4)])
        model = build_pti(inst, 2)
        report = check_feasible(model, by_position(model, {"x_1_1_1": 1, "x_1_1_2": 1, "y_1_1": 1}))
        assert report.feasible
        assert report.objective == 4 * 2  # w * C


class TestAfModel:
    def test_demo_counts(self, demo):
        _, model = af_context(demo)
        job_vars = [b for name, b, _ in columns(model) if name.startswith("x_")]
        assert len(job_vars) == 11
        assert all(b.kind == INTEGER and b.ub == 1 for b in job_vars)
        assert sum(name.startswith("L_") and b.kind == INTEGER for name, b, _ in columns(model)) == 8
        names = [c.name for c in model.constraints]
        assert sum(n.startswith("flow_") for n in names) == 9
        assert sum(n.startswith("demand_") for n in names) == 4

    def test_demo_optimal_valuation(self, demo):
        g, model = af_context(demo)
        values = schedule_to_assignment(demo, DEMO_OPT, g.T, g)
        report = check_feasible(model, values)
        assert report.feasible
        assert report.objective == 67
        valuation = dict(zip(model.names(), values))
        assert valuation["L_7"] == 1 and valuation["L_5"] == 1

    def test_single_job_source_conservation(self):
        inst = make_instance(1, [(3, 5)])
        _, model = af_context(inst)
        flow0 = next(c for c in model.constraints if c.name == "flow_0")
        names = list(model.names())
        assert sorted((names[pos], coef) for pos, coef in flow0.terms) == [("L_0", 1), ("x_0_3_1", 1)]
        assert flow0.sense == "=" and flow0.rhs == 1


class TestEafModel:
    def test_demo_same_optimum_valuation(self, demo):
        g, model = eaf_context(demo)
        report = check_feasible(model, schedule_to_assignment(demo, DEMO_OPT, g.T, g))
        assert report.feasible
        assert report.objective == 67

    def test_identical_jobs_chain_objective(self, single_machine_triple):
        _, model = eaf_context(single_machine_triple)
        valuation = {"x_0_2_1": 1, "x_2_4_1": 1, "x_4_6_1": 1}
        report = check_feasible(model, by_position(model, valuation))
        assert report.feasible
        assert report.objective == 5 * (2 + 4 + 6)

    def test_demand_met_by_single_arc_at_capacity(self, single_machine_triple):
        _, model = eaf_context(single_machine_triple)
        report = check_feasible(model, by_position(model, {"x_0_2_1": 3}))
        demand = next(c for c in model.constraints if c.name.startswith("demand"))
        assert f"constraint {demand.name}" not in report.violations

    def test_objective_constant_counts_every_copy(self, single_machine_triple):
        _, model = eaf_context(single_machine_triple)
        assert model.obj_constant == 3 * 5 * 2


class TestVariableCounts:
    def test_eaf_leq_af_leq_ti(self):
        for seed in range(30):
            inst = generate_instance(n=12, m=2 + seed % 3, p_max=15, w_max=15, seed=seed)
            T = horizon(inst).T
            n_ti = build_ti(inst, T).num_vars
            n_af = af_context(inst)[1].num_vars
            n_eaf = eaf_context(inst)[1].num_vars
            assert n_eaf <= n_af <= n_ti


class TestEmitLp:
    def test_trivial_contract(self):
        model = MilpModel(name="tiny")
        x = append_var(model, "x", 0, 10, INTEGER, obj=1)
        add_row(model, "c1", [x], ">=", 1)
        text = written(write_lp, model.validate())
        lines = text.splitlines()
        assert "Minimize" in lines
        assert " obj: x" in lines
        assert "Subject To" in lines
        assert " c1: x >= 1" in lines
        assert "Generals" in lines
        assert " x" in lines
        assert lines[-1] == "End"

    def test_deterministic(self, demo):
        _, model = af_context(demo)
        assert written(write_lp, model) == written(write_lp, model)

    def test_constant_realized_via_fixed_variable(self, demo):
        model = build_ti(demo, 8)
        text = written(write_lp, model)
        assert "56 ONE" in text
        assert " ONE = 1" in text

    def test_quadratic_section(self, demo):
        text = written(write_lp, build_ciqp(demo))
        assert "] / 2" in text
        assert "x_1_1 * x_2_1" in text

    def test_fractional_coefficients_terminating(self):
        inst = make_instance(1, [(2, 5)])
        text = written(write_lp, build_pti(inst, 2))
        assert "3.75 x_1_1_1" in text  # (5/2) * (1 + 1/2)


class TestEmitMps:
    def test_trivial_contract(self):
        model = MilpModel(name="tiny")
        x = append_var(model, "x", 0, 10, INTEGER, obj=1)
        add_row(model, "c1", [x], ">=", 1)
        text = written(write_mps, ruled(model.validate()))
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert "'INTORG'" in text and "'INTEND'" in text

    def test_demo_ti_structural_columns(self, demo):
        text = written(write_mps, build_ti(demo, 8))
        in_columns = text.split("COLUMNS")[1].split("RHS")[0]
        columns = {
            line.split()[0]
            for line in in_columns.splitlines()
            if line.strip() and not line.strip().startswith("MARKER")
        }
        assert len({c for c in columns if c.startswith("x_")}) == 24

    def test_quadratic_model_rejected(self, demo):
        with pytest.raises(UnsupportedFormatError):
            write_mps(build_ciqp(demo), Discard())

    def test_deterministic(self, demo):
        model = build_ti(demo, 8)
        assert written(write_mps, model) == written(write_mps, model)


class WriteLog:
    """A text file that keeps each ``write()`` it is given."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


class TestWriters:
    @pytest.mark.parametrize("form", ["ti", "af"])
    @pytest.mark.parametrize("write", [write_lp, write_mps])
    def test_text_streams_in_small_writes(self, form, write):
        inst = generate_instance(n=30, m=2, p_max=20, w_max=20, seed=1)
        model = build_ti(inst, horizon(inst).T) if form == "ti" else af_context(inst)[1]
        log = WriteLog()
        write(model, log)
        text = "".join(log.writes)
        assert max(map(len, log.writes)) < len(text) / 10

    def test_quadratic_mps_refused_before_any_write(self, demo):
        log = WriteLog()
        with pytest.raises(UnsupportedFormatError):
            write_mps(build_ciqp(demo), log)
        assert log.writes == []

    def test_dot_streams_in_small_writes(self):
        g = straight_network(generate_instance(n=30, m=2, p_max=20, w_max=20, seed=1))
        log = WriteLog()
        write_dot(g, log)
        text = "".join(log.writes)
        assert text.startswith("digraph flow {\n") and text.endswith("\n}\n")
        assert max(map(len, log.writes)) < len(text) / 10

    def test_mps_memory_per_nonzero(self):
        # The MPS writer reads each block's entries from its column rule and
        # holds no per-nonzero record: one padded name per row, an entry
        # table per coefficient and row, and a run of 64 columns. Traced
        # peak per nonzero on this model (40,039 nonzeros): 6.7-7.4 B on
        # Python 3.10-3.13. The bound is that figure with a 1.5x margin; a
        # column index of 4-byte ids, as the writer once transposed the rows
        # into, measured 13.7 B, and one list of entry strings per column
        # 69.6 B.
        model = af_context(generate_instance(n=60, m=2, p_max=20, w_max=20, seed=1))[1]
        tracemalloc.start()
        try:
            write_mps(model, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / model.nonzeros() < 11

    def test_lp_memory_per_nonzero(self):
        # The LP twin of test_mps_memory_per_nonzero, on its model: the
        # writer keeps one list of the names, and the flow rule an array of
        # positions and one of coefficients per node, taking a row's names
        # from the list as it yields the row. Traced peak per nonzero, first
        # write in a fresh process, when the writer still looked each name
        # up by position: 34.8 B on Python 3.10, 34.4 B on 3.11, 31.6 B on
        # 3.12 and 3.13; the same now. The bound is 1.05x the largest of
        # those. A flow rule that keeps a name reference per entry measured
        # 37.4 B on 3.10 and 37.1 B on 3.11 (34.3 B on 3.12 and 3.13, which
        # this bound does not catch).
        model = af_context(generate_instance(n=60, m=2, p_max=20, w_max=20, seed=1))[1]
        tracemalloc.start()
        try:
            write_lp(model, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / model.nonzeros() < 36.5

    @pytest.mark.parametrize("runs, write", [(milp._lp_runs, write_lp), (milp._mps_runs, write_mps)])
    def test_large_block_writes_bounded_runs(self, runs, write):
        # One block of 12,000 variables: a join per block, or a batch of a
        # fixed number of runs, would make a run or a write grow with it.
        size = 12_000
        names = lambda: (f"x_{i}_{2 * i + 7}_3" for i in range(size))
        model = MilpModel(name="big")
        model.blocks.append(VarBlock(INTEGER, 0, 9, array("q", range(0, 3 * size, 3)), names, None))
        add_row(model, "all", range(size), "<=", 40)
        add_row(model, "alternate", range(size), "=", 0, coefs=[(-1) ** i for i in range(size)])
        for r in range(0, size, 100):
            add_row(model, f"part_{r}", range(r, r + 100), ">=", 1)
        model = ruled(model.validate())  # every column has 3 entries, so the block stays one
        assert len(model.blocks) == 1
        sizes = list(map(len, runs(model)))
        assert 0 < min(sizes) and max(sizes) <= 32_768
        log = WriteLog()
        write(model, log)
        assert max(map(len, log.writes)) <= max(sizes) + 1


class Discard:
    """A text file that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


class TestWrap:
    """``_wrap`` against the greedy fill it replaced, one part at a time.

    ``_wrap`` yields runs of lines joined by newlines; joined and split
    again they must be the greedy lines, and no run may be empty.
    """

    @staticmethod
    def greedy(parts, indent, width, end):
        current = ""
        for part in parts:
            if not current:
                current = part
            elif len(current) + 1 + len(part) > width:
                yield current
                current = indent + part
            else:
                current += " " + part
        if current:
            yield current + end

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(st.text(alphabet="ab +-*/[]_09", min_size=1, max_size=30), max_size=60),
        indent=st.sampled_from(["  ", "   "]),
        width=st.integers(8, 72),
        end=st.sampled_from(["", " <= 3"]),
        slice_parts=st.integers(1, 5),
    )
    def test_matches_greedy_fill(self, parts, indent, width, end, slice_parts):
        # small slices put line ends, long parts and carried lines across slice edges
        default, milp._WRAP_PARTS = milp._WRAP_PARTS, slice_parts
        try:
            runs = list(_wrap(parts, indent, width, end))
            assert "" not in runs
            lines = "\n".join(runs).split("\n") if runs else []
            assert lines == list(self.greedy(parts, indent, width, end))
        finally:
            milp._WRAP_PARTS = default


class TestScheduleToAssignment:
    def test_demo_ti_valuation(self, demo):
        values = schedule_to_assignment(demo, DEMO_OPT, 8, None)
        assert values == by_position(build_ti(demo, 8), {"x_1_0": 1, "x_2_0": 1, "x_3_2": 1, "x_4_3": 1})

    def test_empty_machine_gets_zero_loss(self):
        inst = make_instance(2, [(3, 5)])
        g = straight_network(inst)
        sched = Schedule(machines=((1,), ()))
        values = schedule_to_assignment(inst, sched, g.T, g)
        valuation = dict(zip(build_eaf_model(g).names(), values))
        assert valuation["L_0"] == 1

    def test_non_wspt_order_raises_mapping_error(self, demo):
        g = straight_network(demo, 8)
        shifted = Schedule(machines=((3, 1, 4), (2,)))  # job 1 would start at 1
        with pytest.raises(MappingError, match="job 1"):
            schedule_to_assignment(demo, shifted, g.T, g)

    def test_eaf_start_outside_window_raises(self, demo):
        g, _ = eaf_context(demo)
        # machine [2, 4]: job 4 starts at 5 > b = 4, arc absent
        sched = Schedule(machines=((2, 4), (1, 3)))
        with pytest.raises(MappingError):
            schedule_to_assignment(demo, sched, g.T, g)


class TestAssignmentToSchedule:
    def test_ti_packs_each_machine(self):
        # job 3 starts at 5 after an idle gap; the decoded machine runs it at 1
        inst = make_instance(2, [(1, 1), (5, 1), (1, 1)])
        model = build_ti(inst, horizon(inst).T)
        values = by_position(model, {"x_1_0": 1, "x_2_0": 1, "x_3_5": 1})
        assert check_feasible(model, values).objective == 12
        sched = assignment_to_schedule(inst, values, horizon(inst).T, None)
        assert sched.machines == ((1, 3), (2,))
        assert evaluate_schedule(inst, sched) == 8

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8), m=st.integers(1, 3), data=st.data())
    def test_round_trip(self, seed, n, m, data):
        inst = generate_instance(n=n, m=m, p_max=9, w_max=9, seed=seed)
        on = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        sched = Schedule(machines=tuple(
            sort_machine_wspt(inst, [j for j, k in zip(range(1, n + 1), on) if k == machine])
            for machine in range(m)))
        value = evaluate_schedule(inst, sched)
        T = horizon(inst).T
        for graph, model in ((None, build_ti(inst, T)), af_context(inst), eaf_context(inst)):
            try:
                values = schedule_to_assignment(inst, sched, T, graph)
            except MappingError:  # a load beyond T, or a start outside an eaf window
                assume(False)
            report = check_feasible(model, values)
            assert report.feasible and report.objective == value
            decoded = assignment_to_schedule(inst, values, T, graph)
            assert sorted(j for machine in decoded.machines for j in machine) == list(range(1, n + 1))
            assert evaluate_schedule(inst, decoded) <= value


    @pytest.mark.parametrize("form", ["ti", "af", "eaf"])
    def test_ils_schedules_round_trip_above_the_oracle_sizes(self, form):
        # seeded draws of n 9-20, m 2-4, p, w <= 20: an ILS schedule is
        # WSPT-sorted per machine and ends by T, so every model holds it;
        # the last input's jobs are (p, w) multiples of two ratios, which
        # WSPT interleaves by id across the types of one ratio
        rng = SplitMix64(23)
        draws = [generate_instance(n=rng.randint(9, 20), m=rng.randint(2, 4), p_max=20, w_max=20,
                                   seed=rng.randint(0, 10**6)) for _ in range(60)]
        multiples = make_instance(2, [(3, 2), (1, 1), (6, 4), (2, 2), (3, 3), (4, 4)] * 3)
        for inst in [*draws, multiples]:
            n = inst.n
            sched = ils(inst, IlsConfig(seed=1, iterations=3)).schedule
            value = evaluate_schedule(inst, sched)
            T = horizon(inst).T
            graph, model = (None, build_ti(inst, T)) if form == "ti" else {"af": af_context, "eaf": eaf_context}[form](inst)
            values = schedule_to_assignment(inst, sched, T, graph)
            report = check_feasible(model, values)
            assert report.feasible and report.objective == value
            decoded = assignment_to_schedule(inst, values, T, graph)
            assert sorted(j for machine in decoded.machines for j in machine) == list(range(1, n + 1))
            # where two machines meet at a time point, the decode may join
            # their pieces the other way round; each machine is then
            # WSPT-sorted, so the objective can only fall (by 2 on one of 600
            # draws of this kind, in af and eaf)
            assert evaluate_schedule(inst, decoded) <= value

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8), m=st.integers(1, 3), data=st.data())
    def test_ti_idle_time_any_order(self, seed, n, m, data):
        # each job gets a machine and an idle gap before it, in any order on
        # its machine: the ti variables, not a schedule, are the draw
        inst = generate_instance(n=n, m=m, p_max=9, w_max=9, seed=seed)
        on = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        gaps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(1, n + 1)))
        free = [0] * m
        starts = {}
        for j in order:
            starts[j] = free[on[j - 1]] + gaps[j - 1]
            free[on[j - 1]] = starts[j] + inst.job(j).p
        T = horizon(inst).T
        assume(all(s <= T - inst.job(j).p for j, s in starts.items()))
        offsets = ti_offsets(inst, T)
        values = [0] * offsets[-1]
        for j, s in starts.items():
            values[offsets[j - 1] + s] = 1
        value = sum(inst.job(j).w * (s + inst.job(j).p) for j, s in starts.items())
        report = check_feasible(build_ti(inst, T), values)
        assert report.feasible and report.objective == value
        decoded = assignment_to_schedule(inst, values, T, None)
        assert sorted(j for machine in decoded.machines for j in machine) == list(range(1, n + 1))
        assert evaluate_schedule(inst, decoded) <= value


class TestCheckFeasible:
    def test_all_zero_ti_lists_assignments(self, demo):
        model = build_ti(demo, 8)
        report = check_feasible(model, [0] * model.num_vars)
        assert not report.feasible
        assert {f"constraint assign_{j}" for j in range(1, 5)} <= set(report.violations)

    def test_wrong_length_rejected(self, demo):
        model = build_ti(demo, 8)
        for length in (0, model.num_vars - 1, model.num_vars + 1):
            with pytest.raises(ValidationError, match=f"{length} values for 24 variables"):
                check_feasible(model, [0] * length)

    @staticmethod
    def reference_violations(model, values) -> list[str]:
        """The violations of ``values``, each variable's bounds and each
        row's sum tested one by one, in the order ``check_feasible`` gives."""
        names = list(model.names())
        bounds = [(b.lb, b.ub) for b in model.blocks for _ in range(len(b))]
        out = [f"bound {name}" for name, x, (lb, ub) in zip(names, values, bounds) if x < lb or (ub is not None and x > ub)]
        for c in model.constraints:
            total = sum(values[i] * k for i, k in c.terms)
            ok = total <= c.rhs if c.sense == "<=" else total >= c.rhs if c.sense == ">=" else total == c.rhs
            out += [] if ok else [f"constraint {c.name}"]
        return out

    def test_bound_violations_match_a_per_variable_reference(self):
        # a block's bounds are tested on its least and greatest value, and
        # its variables scanned only when that fails: values pushed below lb
        # and above ub in several blocks, amid values at either bound, must
        # give the violations of the per-variable reference, in its order
        pushed = 0
        for case, model in every_builder_model():
            values, failing = [], 0
            for k, b in enumerate(model.blocks):
                part = [b.lb if b.ub is None or i % 2 else b.ub for i in range(len(b))]
                if part and k % 3 == 0:
                    part[len(part) // 2] = b.lb - 1
                if part and k % 3 == 1 and b.ub is not None:
                    part[-1] = b.ub + Fraction(1, 2)
                    part[0] = b.lb - 2 if len(part) > 2 else part[0]
                failing += any(x < b.lb or (b.ub is not None and x > b.ub) for x in part)
                values += part
            report = check_feasible(model, values)
            assert list(report.violations) == self.reference_violations(model, values), case
            pushed += failing >= 2
        assert pushed > 100

    def test_memory_per_nonzero(self):
        # The check sums each row from the column rules over the nonzero
        # values and makes no row: it holds the exact values and one sum per
        # row. Traced peak per nonzero on the model of
        # test_mps_memory_per_nonzero (40,039 nonzeros), valued by an ILS
        # schedule: 2.95-3.05 B on Python 3.10-3.13. The bound is that figure
        # with a 1.5x margin; making and keeping every row, as the check once
        # read them, measured 15.4-15.6 B.
        inst = generate_instance(n=60, m=2, p_max=20, w_max=20, seed=1)
        g, model = af_context(inst)
        values = schedule_to_assignment(inst, ils(inst, IlsConfig(seed=1, iterations=3)).schedule, g.T, g)
        tracemalloc.start()
        try:
            report = check_feasible(model, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.feasible
        assert peak / model.nonzeros() < 4.6

    def test_oracle_optimum_identical_across_models(self):
        for seed in range(20):
            inst = generate_instance(n=6 + seed % 3, m=2, p_max=10, w_max=10, seed=seed)
            opt = brute_force_optimal(inst).optimum
            sched = brute_force_optimal(inst).schedule
            T = horizon(inst).T
            objs = []
            model = build_ti(inst, T)
            objs.append(check_feasible(model, schedule_to_assignment(inst, sched, T, None)))
            g, model_af = af_context(inst)
            objs.append(check_feasible(model_af, schedule_to_assignment(inst, sched, T, g)))
            ge, model_eaf = eaf_context(inst)
            objs.append(
                check_feasible(model_eaf, schedule_to_assignment(inst, sched, T, ge))
            )
            assert all(r.feasible for r in objs)
            assert {r.objective for r in objs} == {opt}


class TestObjectiveAgreement:
    def test_random_schedules_agree_with_evaluator(self):
        # schedules whose machine loads exceed T have no encoding, so only
        # mappable ones are asserted; the draw must produce plenty of them
        rng = SplitMix64(2024)
        mapped = 0
        for seed in range(10):
            inst = generate_instance(n=7, m=2, p_max=8, w_max=8, seed=seed)
            T = horizon(inst).T
            for _ in range(20):
                machines = [[] for _ in range(inst.m)]
                for j in range(1, inst.n + 1):
                    machines[rng.below(inst.m)].append(j)
                sched = Schedule(machines=tuple(sort_machine_wspt(inst, mm) for mm in machines))
                if max(sum(inst.job(j).p for j in mm) for mm in sched.machines) > T:
                    continue
                mapped += 1
                value = evaluate_schedule(inst, sched)
                model = build_ti(inst, T)
                rep = check_feasible(model, schedule_to_assignment(inst, sched, T, None))
                assert rep.feasible and rep.objective == value
                g, model_af = af_context(inst)
                rep = check_feasible(model_af, schedule_to_assignment(inst, sched, T, g))
                assert rep.feasible and rep.objective == value
        assert mapped >= 50


class TestSolutionFile:
    def test_parse_names_values_comments(self):
        text = "# solver log\nx_1_0 1\nx_2_0 0.5 # trailing\nL_7 2\n\n"
        valuation = parse_solution(text.splitlines())
        assert valuation == {"x_1_0": 1, "x_2_0": Fraction(1, 2), "L_7": 2}

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_solution(["x_1_0 one"])

    @pytest.mark.parametrize("text, message", [
        ("x " + "1" * 5000 + "z\n", "solution line 1: bad numeric value '11111111111111111111'..."),
        ("x 1 " + "2" * 5000 + "\n", "solution line 1: expected 'name value', got 'x 1 2222222222222222'..."),
    ], ids=["value", "line"])
    def test_long_bad_text_quoted_by_a_prefix(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_solution(text.splitlines())
        assert str(exc.value) == message

    def test_plain_integers_read_as_int(self):
        valuation = parse_solution("a 3\nb 2.0\nc 1/2\nd -1\ne 1e0\nf 3/4\n".splitlines())
        assert valuation == {"a": 3, "b": 2, "c": Fraction(1, 2), "d": -1, "e": 1, "f": Fraction(3, 4)}
        assert type(valuation["a"]) is int
        assert all(type(valuation[k]) is Fraction for k in "bcdef")

    @pytest.mark.parametrize("text, message", [
        ("x_1_0 \u0661\n", "solution line 1: bad numeric value '\u0661'"),
        ("x_1_0 1\nx_2_0 \uff12\n", "solution line 2: bad numeric value '\uff12'"),
        ("z \u0661.5\n", "solution line 1: bad numeric value '\u0661.5'"),
        ("z 1.\u0665e-9\n", "solution line 1: bad numeric value '1.\u0665e-9'"),
        ("x 3/4\ny 1/0\n", "solution line 2: bad numeric value '1/0'"),
        ("x -3/0\n", "solution line 1: bad numeric value '-3/0'"),
        ("x 1\n# log\ny 0/0\n", "solution line 3: bad numeric value '0/0'"),
        ("x 1\n\ny 0/0\n", "solution line 3: bad numeric value '0/0'"),  # split to ["x 1", "", "y 0/0"]
        ("x 1_0\n", "solution line 1: bad numeric value '1_0'"),
        ("x 2\ny 1e1_0\n", "solution line 2: bad numeric value '1e1_0'"),
    ], ids=[
        "arabic-indic", "fullwidth", "arabic-indic-decimal", "mixed",
        "zero-denominator", "negative-over-zero", "zero-over-zero", "zero-over-zero-after-a-blank-line", "separator",
        "separator-in-exponent",
    ])
    def test_digits_of_other_scripts_refused(self, text, message):
        # int() and Fraction() read any Unicode digit; the instance and
        # schedule parsers refuse them, and so does the solution reader.
        # It refuses, too, what Fraction() would raise ZeroDivisionError on
        # (n/0), and a "_" separator, which Fraction() reads from 3.11 on only
        with pytest.raises(ValueError) as exc:
            parse_solution(text.splitlines())
        assert str(exc.value) == message

    def test_ascii_values_still_read(self):
        # b reads 0, so it is not kept, and a name not kept reads 0
        valuation = parse_solution("a 1\nb -0.0\nc 1e-9\nd 8145.000000001\n".splitlines())
        assert valuation == {"a": 1, "c": Fraction(1, 10**9), "d": Fraction(8145000000001, 10**9)}

    @pytest.mark.parametrize("value", ["1e1000000", "1e10000000", "1e-10000000", "1e999999999"])
    def test_exponent_past_the_digit_limit_refused_at_once(self, value):
        # read exactly, each would build 10**|e|: 1e10000000 took 7 s
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^solution line 1: bad numeric value '{value[:20]}'"):
            parse_solution([f"x {value}"])
        assert time.perf_counter() - start < 0.1

    def test_values_within_the_digit_limit_read_exactly(self):
        # the exponent's magnitude plus the mantissa's digits may reach the limit, not pass it
        limit = sys.get_int_max_str_digits()
        floats = [0.1, 1 / 3, 2.9999999999999996, 1e-300, 5e-324, 1.7976931348623157e308]
        text = ["a 1e-09", "b 2.9999999999999996", f"c 1e{limit - 1}", f"d 25e-{limit - 2}"]
        text += [f"f{i} {x!r}" for i, x in enumerate(floats)]
        valuation = parse_solution(text)
        assert valuation["a"] == Fraction(1, 10**9) and valuation["b"] == Fraction(29999999999999996, 10**16)
        assert valuation["c"] == 10 ** (limit - 1) and valuation["d"] == Fraction(25, 10 ** (limit - 2))
        read = [valuation[f"f{i}"] for i in range(len(floats))]
        assert read == [Fraction(repr(x)) for x in floats] and list(map(float, read)) == floats
        for value in (f"1e{limit}", f"25e-{limit - 1}", f"1.5e{limit - 1}"):
            with pytest.raises(ValueError, match="bad numeric value"):
                parse_solution([f"x {value}"])

    def test_zeros_dropped_and_the_last_value_wins(self):
        # a zero is not kept and drops an earlier value of its name
        valuation = parse_solution(["a 0", "b 2", "c 3", "b 0", "c 0.0", "c 5", "d 0/7", "e 1", "e 4"])
        assert valuation == {"c": 5, "e": 4}

    def test_reads_an_open_file_line_by_line(self, tmp_path):
        # the lines a file yields keep their line ends, and a form feed
        # still breaks a line, as in the whole text, so line numbers agree
        path = tmp_path / "s.sol"
        path.write_text("# log\r\nx_1_0 1\r\nx_2_0 0\nL_7 3/2\fy 2\n\nz one\n", encoding="utf-8")
        with path.open(encoding="utf-8") as fh, pytest.raises(ValueError, match="^solution line 7: bad numeric"):
            parse_solution(fh)
        path.write_text("# log\r\nx_1_0 1\r\nx_2_0 0\nL_7 3/2\fy 2\n", encoding="utf-8")
        with path.open(encoding="utf-8") as fh:
            assert parse_solution(fh) == {"x_1_0": 1, "L_7": Fraction(3, 2), "y": 2}


try:
    import scipy  # noqa: F401

    _HAS_SCIPY = True
except ImportError:
    _HAS_SCIPY = False


@pytest.mark.skipif(not _HAS_SCIPY, reason="LP shim needs scipy")
class TestLpRoundTripSolve:
    """Emit LP, solve it in an external process, confirm the optimum."""

    def solve(self, model, tmp_path) -> list[int]:
        tmp_path.mkdir(parents=True, exist_ok=True)
        lp = tmp_path / "model.lp"
        sol = tmp_path / "model.sol"
        with lp.open("w", encoding="utf-8") as fh:
            write_lp(model, fh)
        shim = Path(__file__).parent / "lp_shim.py"
        subprocess.run([sys.executable, str(shim), str(lp), str(sol)], check=True)
        with sol.open(encoding="utf-8") as fh:
            valuation = parse_solution(fh)
        return [round(valuation.get(name, 0)) for name in model.names()]

    def test_demo_af_lp_solves_to_67(self, demo, tmp_path):
        _, model = af_context(demo)
        report = check_feasible(model, self.solve(model, tmp_path))
        assert report.feasible
        assert report.objective == 67

    def test_demo_ti_lp_solves_to_67(self, demo, tmp_path):
        model = build_ti(demo, 8)
        report = check_feasible(model, self.solve(model, tmp_path))
        assert report.feasible
        assert report.objective == 67

    def test_random_instances_all_forms_reach_oracle_optimum(self, tmp_path):
        # the decisive cross-check: solver optima of the emitted models
        # equal the brute-force optimum, for all three network forms
        for seed in range(5):
            inst = generate_instance(n=7, m=2, p_max=10, w_max=10, seed=900 + seed)
            opt = brute_force_optimal(inst).optimum
            T = horizon(inst).T
            models = {"ti": build_ti(inst, T), "af": af_context(inst)[1], "eaf": eaf_context(inst)[1]}
            for form, model in models.items():
                valuation = self.solve(model, tmp_path / f"{form}{seed}")
                report = check_feasible(model, valuation)
                assert report.feasible, (seed, form)
                assert report.objective == opt, (seed, form, report.objective, opt)
