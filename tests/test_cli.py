import signal
import subprocess
import sys
import tempfile
import time
from argparse import Namespace
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from arcsched import cli, flowgraph, instance, milp
from arcsched.bounds import horizon_T
from arcsched.cli import main
from arcsched.heuristic import IlsConfig
from arcsched.instance import (
    BYTES_PER,
    generate_instance,
    make_instance,
    parse_instance,
    parse_schedule,
    write_instance,
)

from conftest import DEMO_TEXT

SHIM = Path(__file__).parent / "lp_shim.py"
SOLVER = f"{sys.executable} {SHIM} {{model}} {{solution}}"


@pytest.fixture
def demo_file(tmp_path) -> Path:
    path = tmp_path / "demo.txt"
    path.write_text(DEMO_TEXT, encoding="utf-8")
    return path


def scaled(inst, factor: int) -> str:
    """Instance text with every weight multiplied by ``factor``."""
    return write_instance(make_instance(inst.m, [(j.p, j.w * factor) for j in inst.jobs]))


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def demo_flow_solver(arc: str, value: int) -> str:
    """A solver script body that writes the demo's optimal flow, whose arcs af
    and eaf name alike (labels are WSPT ranks, here the job ids), with the
    value of ``arc`` set to ``value``."""
    values = {"x_0_2_1": 1, "x_2_3_3": 1, "x_3_7_4": 1, "L_7": 1, "x_0_5_2": 1, "L_5": 1, arc: value}
    text = "".join(f"{name} {v}\n" for name, v in values.items())
    return f"open(sys.argv[2], 'w').write({text!r})"


# flows off the model, as (arc, value, violations): an arc over its capacity, a
# negative unit, a dropped unit and a surplus unit that no walk uses; the exact
# check refuses each, so the decode never walks it
BAD_FLOWS = {
    "over_capacity": ("x_0_2_1", 2, "bound x_0_2_1, constraint flow_0, constraint flow_2"),
    "negative_unit": ("x_0_5_2", -1, "bound x_0_5_2, constraint flow_0, constraint flow_5, constraint demand_2"),
    "dropped_unit": ("x_0_2_1", 0, "constraint flow_0, constraint flow_2, constraint demand_1"),
    "surplus_unit": ("x_0_1_3", 1, "constraint flow_0, constraint flow_1"),
}


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "i.txt"
        code, text = run(capsys, "gen", "--n", "30", "--m", "2", "--pmax", "20",
                         "--wmax", "20", "--seed", "7", "--out", str(out))
        assert code == 0
        inst = parse_instance(out.read_text(encoding="utf-8"))
        assert inst.n == 30 and inst.m == 2
        assert "instance.n: 30" in text

    def test_same_flags_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run(capsys, "gen", "--n", "10", "--m", "2", "--pmax", "9", "--wmax", "9",
                "--seed", "3", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_pmax_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "3", "--m", "1", "--pmax", "0", "--wmax", "5",
                  "--seed", "1", "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2


class TestBounds:
    def test_prints_horizon(self, demo_file, capsys):
        code, text = run(capsys, "bounds", "--in", str(demo_file))
        assert code == 0
        assert "T: 8" in text
        assert "T_prime: 4" in text
        assert "window job 2: [0, 3]" in text


class TestModel:
    def test_af_report_counts(self, demo_file, tmp_path, capsys):
        out = tmp_path / "m.lp"
        code, text = run(capsys, "model", "--in", str(demo_file), "--form", "af",
                         "--format", "lp", "--out", str(out))
        assert code == 0
        assert "nodes: 9" in text
        assert "job_arcs: 11" in text
        assert "loss_arcs: 8" in text
        assert out.exists()

    def test_strict_figure_loss_count(self, demo_file, tmp_path, capsys):
        code, text = run(capsys, "model", "--in", str(demo_file), "--form", "af",
                         "--format", "lp", "--out", str(tmp_path / "m.lp"), "--strict-figure")
        assert "loss_arcs: 7" in text

    def test_ti_variable_count(self, demo_file, tmp_path, capsys):
        code, text = run(capsys, "model", "--in", str(demo_file), "--form", "ti",
                         "--out", str(tmp_path / "m.lp"))
        assert code == 0
        assert "variables: 24" in text

    def test_mps_emission(self, demo_file, tmp_path, capsys):
        out = tmp_path / "m.mps"
        code, _ = run(capsys, "model", "--in", str(demo_file), "--form", "ti",
                      "--format", "mps", "--out", str(out))
        assert code == 0
        assert "ENDATA" in out.read_text(encoding="utf-8")

    def test_ciqp_mps_unsupported(self, demo_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--in", str(demo_file), "--form", "ciqp", "--format", "mps",
                  "--out", str(tmp_path / "m.mps")])
        assert exc.value.code == 2

    def test_dot_output(self, demo_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        run(capsys, "model", "--in", str(demo_file), "--form", "af",
            "--out", str(tmp_path / "m.lp"), "--dot", str(dot))
        assert dot.read_text(encoding="utf-8").startswith("digraph")

    @pytest.mark.parametrize("form", ["ti", "ciqp", "pti"])
    def test_dot_without_flow_network_usage_error(self, form, demo_file, tmp_path):
        dot = tmp_path / "g.dot"
        with pytest.raises(SystemExit) as exc:
            main(["model", "--in", str(demo_file), "--form", form,
                  "--out", str(tmp_path / "m.lp"), "--dot", str(dot)])
        assert exc.value.code == 2
        assert not dot.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["model", "--in", str(tmp_path / "absent.txt"), "--form", "ti",
                     "--out", str(tmp_path / "m.lp")])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["model", "--in", "{dir}", "--form", "ti", "--out", "{dir}/m.lp"],
        ["model", "--in", "{demo}", "--form", "ti", "--out", "{dir}"],
        ["check", "--in", "{demo}", "--sched", "{dir}", "--form", "af"],
    ], ids=["model-in", "model-out", "check-sched"])
    def test_directory_path_input_error(self, argv, demo_file, tmp_path, capsys):
        # a directory where a file is expected is an OSError other than
        # FileNotFoundError; it must exit 3 with a message, not a traceback
        code = main([a.format(dir=tmp_path, demo=demo_file) for a in argv])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestModelSizeGuard:
    """ti, pti and ciqp models too large to build are refused with exit 5
    before any pseudo-polynomial allocation, on an estimate from the
    instance. af and eaf are built over their reachable time points only,
    and the build refuses once the nonzeros it has made pass the budget. A
    2-job file with p = 10**10 used to raise MemoryError (flow forms) or
    loop for minutes (ti): ti and pti refuse it, af and eaf build its
    12 nonzeros in well under a second."""

    HUGE_P = "2 2\n10000000000 3\n4 5\n"

    @pytest.fixture
    def huge_p(self, tmp_path) -> Path:
        path = tmp_path / "huge.txt"
        path.write_text(self.HUGE_P, encoding="utf-8")
        return path

    @pytest.fixture
    def huge_sched(self, tmp_path) -> Path:
        path = tmp_path / "huge.sched"
        path.write_text("objective 0\nmachine 1: 1\nmachine 2: 2\n", encoding="utf-8")
        return path

    @staticmethod
    @contextmanager
    def deadline(seconds: float):
        """Turn a run past ``seconds`` into a failure instead of a hang."""

        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def assert_refused_fast(self, capsys, *argv):
        with self.deadline(5.0):
            t0 = time.perf_counter()
            code = main(list(argv))
            elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 5, err
        assert err.startswith("refused:") and "model guard" in err
        assert elapsed < 1.0

    def assert_built_fast(self, capsys, *argv) -> str:
        with self.deadline(5.0):
            t0 = time.perf_counter()
            code = main(list(argv))
            elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert elapsed < 1.0
        return out

    @pytest.mark.parametrize("form", ["ti", "pti", "af", "eaf"])
    def test_model_refused(self, form, huge_p, tmp_path, capsys):
        argv = ("model", "--in", str(huge_p), "--form", form, "--out", str(tmp_path / "m.lp"))
        if form in ("af", "eaf"):  # 2 job arcs and 3 loss arcs
            assert "\nnonzeros: 12\n" in self.assert_built_fast(capsys, *argv)
            return
        self.assert_refused_fast(capsys, *argv)
        assert not (tmp_path / "m.lp").exists()

    def test_ciqp_refused_on_many_jobs(self, tmp_path, capsys):
        # ciqp is polynomial: m n (n - 1) / 2 quadratic terms, not p, set its size
        many = tmp_path / "many.txt"
        many.write_text("5000 2\n" + "3 2\n" * 5000, encoding="utf-8")
        self.assert_refused_fast(capsys, "model", "--in", str(many), "--form", "ciqp",
                                 "--out", str(tmp_path / "m.lp"))

    @pytest.mark.parametrize("form", ["ti", "af", "eaf"])
    def test_check_refused(self, form, huge_p, huge_sched, capsys):
        argv = ("check", "--in", str(huge_p), "--sched", str(huge_sched), "--form", form)
        if form in ("af", "eaf"):
            out = self.assert_built_fast(capsys, *argv)
            assert "\nfeasible: True\nobjective: 30000000020\n" in out
            return
        self.assert_refused_fast(capsys, *argv)

    @pytest.mark.parametrize("form", ["ti", "af", "eaf"])
    def test_solve_external_refused(self, form, huge_p, capsys):
        # ti's guard fires while building, before the solver would run; the
        # flow models are built in well under a second and solved
        if form == "ti":
            self.assert_refused_fast(capsys, "solve-external", "--in", str(huge_p), "--form", form,
                                     "--solver-cmd", "false")
            return
        code, out = run(capsys, "solve-external", "--in", str(huge_p), "--form", form, "--solver-cmd", SOLVER)
        assert code == 0
        assert "\nobjective: 30000000020\n" in out
        assert float(out.split("time.build_ms: ")[1].split()[0]) < 1000

    @pytest.mark.parametrize("form", ["af", "eaf"])
    def test_one_network_one_verdict(self, form, tmp_path, capsys):
        # af and eaf with every reduction off are one network: over T = 3.4e6
        # it reaches 3 time points, with 3 job arcs and 2 loss arcs, and
        # both forms write it byte for byte
        inst = tmp_path / "i.txt"
        inst.write_text("2 1\n1700000 1\n1700000 2\n", encoding="utf-8")
        texts = []
        for each in ("af", form):
            out = self.assert_built_fast(capsys, "model", "--in", str(inst), "--form", each, "--no-windows",
                                         "--no-types", "--no-tprime", "--out", str(tmp_path / "m.lp"))
            assert "\nnonzeros: 13\n" in out
            texts.append((tmp_path / "m.lp").read_text(encoding="utf-8"))
        assert texts[0] == texts[1]

    # an af or eaf coefficient w t above 2**63 - 1 would overflow their int64
    # objective arrays (OverflowError), so build_eaf_model refuses it before
    # it makes the model (type 2 under af, type 1 under eaf); ti keeps exact
    # coefficients and builds and checks it. A job of
    # p = 10**11 makes 5 nonzeros; it was refused while the build kept tables
    # over its T + 1 time points (they raised MemoryError), and is built now
    # that the build holds only the points it reaches (reason None)
    REFUSED = {
        "weight": ("3 1\n2 1000000000000000000000\n2 1000000000000000000000\n1 1\n",
                   "objective 6000000000000000000005\nmachine 1: 1 2 3\n",
                   "w t = 1000000000000000000000 * 2"),
        "horizon": ("1 1\n100000000000 1\n", "objective 100000000000\nmachine 1: 1\n", None),
    }

    @pytest.mark.parametrize("case, form", [("weight", "ti"), ("weight", "af"), ("weight", "eaf"), ("horizon", "eaf")])
    @pytest.mark.parametrize(
        "cmd",
        [("model", "--out", "m.lp"), ("model", "--format", "mps", "--out", "m.lp"), ("check", "--sched", "i.sched"),
         ("solve-external", "--solver-cmd", SOLVER)],
        ids=["model-lp", "model-mps", "check", "solve-external"],
    )
    def test_refused_before_the_build(self, case, form, cmd, tmp_path, capsys, monkeypatch):
        text, sched, reason = self.REFUSED[case]
        monkeypatch.chdir(tmp_path)
        Path("i.txt").write_text(text, encoding="utf-8")
        Path("i.sched").write_text(sched, encoding="utf-8")
        with self.deadline(10.0):
            code = main([*cmd, "--in", "i.txt", "--form", form])
        out, err = capsys.readouterr()
        if form == "ti":
            if cmd[0] == "solve-external":
                # built and written; the shim's HiGHS gives up on costs of
                # 10**21 (exit 4), which is no refusal and no crash
                assert code != 5 and "Traceback" not in err, err
                return
            assert (code, err) == (0, ""), err
            built = "nonzeros: 34" if cmd[0] == "model" else "objective: 6000000000000000000005"
            assert f"\n{built}\n" in out
            return
        if reason is None:
            assert (code, err) == (0, ""), err
            built = "nonzeros: 5" if cmd[0] == "model" else "objective: 100000000000"
            assert f"\n{built}\n" in out
            assert float(out.split("_ms: ")[1].split()[0]) < 1000  # time.build_ms, or check_ms with the build
            return
        assert code == 5 and err.startswith("refused:") and reason in err, err
        assert not Path("m.lp").exists()

    def test_compare_refused(self, tmp_path, capsys):
        # ti's variables are counted in O(n), and the flow networks over
        # p up to 10**10 reach only a few points each
        out = self.assert_built_fast(capsys, "compare", "--n", "3", "--m", "2", "--pmax", "10000000000",
                                     "--seeds", "1", "--out", str(tmp_path / "c.csv"))
        assert "\nmean_vars_af: 11.0\nmean_vars_eaf: 10.0\n" in out

    def test_ciqp_on_huge_p_still_builds(self, huge_p, tmp_path, capsys):
        code, text = run(capsys, "model", "--in", str(huge_p), "--form", "ciqp",
                         "--out", str(tmp_path / "m.lp"))
        assert code == 0
        assert "nonzeros: 6" in text  # 2 x 2 assignment entries, 2 quadratic terms

    @pytest.mark.parametrize("form", ["ti", "pti", "af", "eaf", "ciqp"])
    def test_estimate_bounds_reported_nonzeros(self, form, tmp_path, capsys, monkeypatch):
        # the guard prices the count the report gives: ti, pti and ciqp by
        # their estimate, af and eaf by the count their build makes (its
        # last check is over the whole network); ti adds its rows, the report's
        # constraints, and af and eaf the instance's jobs
        checked = []
        for module in (milp, flowgraph):
            monkeypatch.setattr(module, "check_bytes", lambda need, what: checked.append(need))
        flags = [(), ("--no-windows",), ("--no-types",), ("--no-tprime",), ("--strict-figure",)]
        for seed in range(12):
            inst = generate_instance(n=2 + seed % 9, m=1 + seed % 4, p_max=3 + 2 * seed, w_max=9, seed=seed)
            path = tmp_path / f"i{seed}.txt"
            path.write_text(write_instance(inst), encoding="utf-8")
            extra = flags[seed % len(flags)] if form == "eaf" else ()
            code, text = run(capsys, "model", "--in", str(path), "--form", form,
                             "--out", str(tmp_path / "m.lp"), *extra)
            assert code == 0
            reported = int(text.split("nonzeros: ")[1].split()[0])
            if form in ("af", "eaf"):
                price = reported * BYTES_PER["flow nonzero"] + inst.n * BYTES_PER["flow job"]
            else:
                rows = int(text.split("constraints: ")[1].split()[0])
                price = reported * BYTES_PER[f"{form} nonzero"] + (rows * BYTES_PER["ti row"] if form == "ti" else 0)
            assert checked[-1] == price and reported > 0

    class Reached(Exception):
        """The model guard let the build through."""

    @pytest.fixture
    def stop_at_build(self, monkeypatch):
        def reached(*args, **kwargs):
            raise self.Reached

        # every builder makes its model once its guard has passed (the flow
        # forms' guard is in the network build)
        monkeypatch.setattr(milp, "MilpModel", reached)

    # The paper's grid: n up to 400, m = 2 or 4, p and w in U[1, 100]. These
    # forms and sizes were built before the guard existed, with at most
    # about 6 GB peak RSS, and must still be.
    @pytest.mark.parametrize(("form", "n", "m"), [
        ("ti", 100, 2), ("ti", 200, 4), ("pti", 200, 2), ("pti", 200, 4),
        ("af", 400, 2), ("af", 400, 4), ("eaf", 400, 2), ("eaf", 400, 4),
    ])
    def test_paper_grid_builds(self, form, n, m, stop_at_build, tmp_path):
        for seed in (1, 2, 3):
            path = tmp_path / "grid.txt"
            path.write_text(write_instance(generate_instance(n, m, 100, 100, seed)), encoding="utf-8")
            with pytest.raises(self.Reached):
                main(["model", "--in", str(path), "--form", form, "--format", "mps", "--out", str(tmp_path / "m")])

    # ti at n = 200, m = 2 would need about 7 GB with the compact records
    # (about 10 GB before them); ti at n = 400 and pti at n = 400 more still.
    @pytest.mark.parametrize(("form", "n", "m"), [
        ("ti", 200, 2), ("ti", 400, 2), ("ti", 400, 4), ("pti", 400, 2), ("pti", 400, 4),
    ])
    def test_paper_grid_refused(self, form, n, m, stop_at_build, tmp_path, capsys):
        for seed in (1, 2, 3):
            path = tmp_path / "grid.txt"
            path.write_text(write_instance(generate_instance(n, m, 100, 100, seed)), encoding="utf-8")
            self.assert_refused_fast(capsys, "model", "--in", str(path), "--form", form,
                                     "--out", str(tmp_path / "m"))

    def test_weight_refused_only_past_the_built_coefficients(self, tmp_path, capsys):
        # w_j (T - p_j) only bounds the built coefficients from above: a
        # job's arcs start at the points its network reaches, which can lie
        # well below T - p_j. Weights scaled so
        # that bound just passes 2**63 - 1 still build; scaled past the
        # largest w t built, they are refused with the builder's message
        path, lp = tmp_path / "i.txt", str(tmp_path / "m.lp")
        flags = Namespace(no_windows=False, no_types=False, no_tprime=False, strict_figure=False)
        for seed in range(300):
            inst = generate_instance(n=4 + seed % 6, m=2 + seed // 6 % 3, p_max=9, w_max=9, seed=seed)
            T = horizon_T(inst)
            scale = (2**63 - 1) // max(j.w * (T - j.p) for j in inst.jobs) + 1
            for form in ("af", "eaf"):
                path.write_text(scaled(inst, scale), encoding="utf-8")
                assert run(capsys, "model", "--in", str(path), "--form", form, "--out", lp)[0] == 0, (seed, form)
                model = cli._build_model(parse_instance(path.read_text(encoding="utf-8")), form, flags)[0]
                largest = max(max(b.obj, default=0) for b in model.blocks) // scale
                path.write_text(scaled(inst, (2**63 - 1) // largest + 1), encoding="utf-8")
                assert main(["model", "--in", str(path), "--form", form, "--out", lp]) == 5, (seed, form)
                err = capsys.readouterr().err
                assert err.startswith("refused: type ") and "the objective coefficient w t = " in err, err

    @pytest.mark.parametrize(("form", "jobs", "m", "variables"), [
        ("pti", "3 1\n4 2\n2 5\n", 10**5, 45), ("ciqp", "3 1\n4 2\n", 10**6, 4),
    ], ids=["pti", "ciqp"])
    def test_more_machines_than_jobs_built_over_n(self, form, jobs, m, variables, tmp_path, capsys):
        # a solution uses at most n machines, so pti and ciqp are built over
        # min(m, n) of them, not m
        path = tmp_path / "i.txt"
        path.write_text(f"{len(jobs.splitlines())} {m}\n{jobs}", encoding="utf-8")
        out = self.assert_built_fast(capsys, "model", "--in", str(path), "--form", form, "--out", str(tmp_path / "m.lp"))
        assert f"\nvariables: {variables}\n" in out

    @pytest.mark.parametrize("form", ["af", "eaf"])
    def test_horizon_past_64_bits_refused(self, form, tmp_path, capsys):
        # tails and heads are arrays of at most 64 bits, so one job of
        # p = 10**400 is refused, where it would overflow them
        inst = tmp_path / "i.txt"
        inst.write_text(f"1 1\n1{'0' * 400} 1\n", encoding="utf-8")
        code = main(["model", "--in", str(inst), "--form", form, "--out", str(tmp_path / "m.lp")])
        assert (code, *capsys.readouterr()) == (5, "", "refused: the horizon T = 1e+400 is above 2^64 - 1\n")
        code = main(["compare", "--n", "3", "--m", "2", "--pmax", "1" + "0" * 30, "--seeds", "1",
                     "--out", str(tmp_path / "c.csv")])
        assert (code, *capsys.readouterr()) == (5, "", "refused: the horizon T = 1.48e+30 is above 2^64 - 1\n")

    @pytest.mark.parametrize("form", ["af", "eaf"])
    def test_flow_refused_by_its_build(self, form, demo_file, tmp_path, capsys, monkeypatch):
        # the build refuses once the nonzeros it has made, at the flow rate,
        # pass the budget, so no model is made; at the budget it goes on
        graphs = []

        def reached(g):
            graphs.append(g)
            raise self.Reached

        monkeypatch.setattr(milp, "build_eaf_model", reached)
        argv = ["model", "--in", str(demo_file), "--form", form, "--out", str(tmp_path / "m.lp")]
        with pytest.raises(self.Reached):
            main(argv)
        g = graphs.pop()
        nonzeros = 3 * len(g.arcs) - len(g.runs[flowgraph.LOSS])
        price = nonzeros * BYTES_PER["flow nonzero"] + 4 * BYTES_PER["flow job"]  # the demo's 4 jobs
        monkeypatch.setattr(instance, "MAX_MODEL_BYTES", price - 1)
        assert main(argv) == 5
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"refused: the flow model reaches {nonzeros} nonzeros, about ")
        assert not graphs and not (tmp_path / "m.lp").exists()
        monkeypatch.setattr(instance, "MAX_MODEL_BYTES", price)
        with pytest.raises(self.Reached):
            main(argv)


class TestCompare:
    def test_counts_match_built_models(self, tmp_path, capsys):
        # compare counts variables without building the models
        out = tmp_path / "cmp.csv"
        run(capsys, "compare", "--n", "9", "--m", "3", "--pmax", "12", "--wmax", "9",
            "--seeds", "3", "--seed", "40", "--out", str(out))
        rows = out.read_text(encoding="utf-8").splitlines()[2:-1]
        for row in rows:
            seed, *counts = row.split(",")[:4]
            inst = generate_instance(9, 3, 12, 9, int(seed))
            path = tmp_path / "i.txt"
            path.write_text(write_instance(inst), encoding="utf-8")
            built = []
            for form in ("ti", "af", "eaf"):
                _, text = run(capsys, "model", "--in", str(path), "--form", form, "--out", str(tmp_path / "m.lp"))
                built.append(text.split("variables: ")[1].split()[0])
            assert counts == built

    def test_paper_scale_not_refused(self, tmp_path, capsys):
        # n = 100, m = 2 at the paper's p <= 100: ti alone has ~1.3e7 nonzeros
        code, text = run(capsys, "compare", "--n", "100", "--m", "2", "--pmax", "100",
                         "--wmax", "100", "--seeds", "1", "--out", str(tmp_path / "c.csv"))
        assert code == 0
        assert "mean_vars_ti: 253626.0" in text

    def test_csv_schema_and_ordering(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, text = run(capsys, "compare", "--n", "12", "--m", "2", "--pmax", "10",
                         "--wmax", "10", "--seeds", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#") and "v1" in lines[0]
        assert lines[1] == "seed,vars_ti,vars_af,vars_eaf,red_af_vs_ti,red_eaf_vs_af"
        for row in lines[2:-1]:
            _, ti, af, eaf, *_ = row.split(",")
            assert int(eaf) <= int(af) <= int(ti)
        assert lines[-1].startswith("mean,")

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(capsys, "compare", "--n", "10", "--m", "2", "--pmax", "8",
                "--wmax", "8", "--seeds", "2", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_many_machine_reduction_level(self, tmp_path, capsys):
        # with 8 machines the WSPT pruning removes roughly a fifth of the
        # time-indexed variables (22% +- 8 points over 10 seeds)
        code, text = run(capsys, "compare", "--n", "30", "--m", "8", "--pmax", "20",
                         "--wmax", "20", "--seeds", "10", "--seed", "5000",
                         "--out", str(tmp_path / "c.csv"))
        assert code == 0
        mean_red = float(next(
            l for l in text.splitlines() if l.startswith("mean_red_af_vs_ti_pct")
        ).split()[1])
        assert abs(mean_red - 22.0) <= 8.0


class TestReductionToggles:
    def variables(self, capsys, demo_file, tmp_path, *extra) -> int:
        _, text = run(capsys, "model", "--in", str(demo_file), "--form", "eaf",
                      "--out", str(tmp_path / "m.lp"), *extra)
        return int(next(l for l in text.splitlines() if l.startswith("variables:")).split()[1])

    def test_each_toggle_relaxes_the_reduction(self, demo_file, tmp_path, capsys):
        full = self.variables(capsys, demo_file, tmp_path)
        for flag in ("--no-windows", "--no-types", "--no-tprime"):
            assert self.variables(capsys, demo_file, tmp_path, flag) >= full

    def test_all_toggles_off_matches_af_arc_count(self, tmp_path, capsys):
        # af is eaf with every reduction disabled: same counts, same bytes
        f = tmp_path / "i.txt"
        f.write_text("5 2\n2 7\n3 6\n4 3\n5 2\n6 1\n", encoding="utf-8")
        all_off = ("--no-windows", "--no-types", "--no-tprime")
        for strict in ((), ("--strict-figure",)):
            written = {}
            for form, flags in (("af", ()), ("eaf", all_off)):
                files = []
                for fmt in ("lp", "mps"):
                    out, dot = tmp_path / f"{form}.{fmt}", tmp_path / f"{form}.dot"
                    _, text = run(capsys, "model", "--in", str(f), "--form", form, "--format", fmt,
                                  "--out", str(out), "--dot", str(dot), *flags, *strict)
                    counts = [l for l in text.splitlines() if l.split(":")[0] in
                              ("variables", "constraints", "nodes", "job_arcs", "loss_arcs")]
                    files.append((counts, out.read_bytes(), dot.read_bytes()))
                written[form] = files
            assert written["af"] == written["eaf"], strict

    def test_strict_figure_drops_zero_loss_arc_without_tprime(self, demo_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        _, text = run(capsys, "model", "--in", str(demo_file), "--form", "eaf",
                      "--out", str(tmp_path / "m.lp"), "--dot", str(dot),
                      "--strict-figure", "--no-tprime")
        assert "loss_arcs: 7" in text
        assert "variables: 17" in text
        assert "  0 -> 8 [style=dashed];" not in dot.read_text(encoding="utf-8")
        assert self.variables(capsys, demo_file, tmp_path, "--no-tprime") == 18


class TestSolveHeur:
    def test_budget_defaults_by_size(self):
        from arcsched.cli import _heur_budgets

        assert _heur_budgets(30, None, None) == (1000, None)
        assert _heur_budgets(150, None, None)[1] == 100.0
        assert _heur_budgets(400, None, None)[1] == 300.0
        assert _heur_budgets(150, 50, None) == (50, None)  # explicit iters win
        assert _heur_budgets(30, None, 2.0)[1] == 2.0

    def test_demo_reaches_67(self, demo_file, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, text = run(capsys, "solve-heur", "--in", str(demo_file), "--seed", "5",
                         "--iters", "100", "--out", str(out))
        assert code == 0
        assert "objective: 67" in text
        assert parse_schedule(out.read_text(encoding="utf-8"))

    def test_time_budget_marks_non_deterministic(self, demo_file, tmp_path, capsys):
        code, text = run(capsys, "solve-heur", "--in", str(demo_file), "--seed", "5",
                         "--time", "0.05", "--out", str(tmp_path / "s.txt"))
        assert code == 0
        assert "deterministic: no" in text

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_time_is_an_input_error(self, demo_file, tmp_path, capsys, budget):
        # the config must refuse the budget; if it did not, the run would never stop
        with pytest.raises(ValueError):
            IlsConfig(seed=5, time_limit=float(budget))
        code = main(["solve-heur", "--in", str(demo_file), "--seed", "5",
                     "--time", budget, "--out", str(tmp_path / "s.txt")])
        assert code == 3
        assert "time budget" in capsys.readouterr().err


class TestSolveExact:
    def test_demo_optimum_and_schedule(self, demo_file, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, text = run(capsys, "solve-exact", "--in", str(demo_file), "--out", str(out))
        assert code == 0
        assert "objective: 67" in text
        sched = parse_schedule(out.read_text(encoding="utf-8"))
        assert sorted(sched.machines, key=len) == [(2,), (1, 3, 4)]

    def test_all_optima_count(self, demo_file, tmp_path, capsys):
        code, text = run(capsys, "solve-exact", "--in", str(demo_file), "--out",
                         str(tmp_path / "s.txt"), "--all-optima")
        assert code == 0
        assert "optimal_assignments:" in text

    def test_size_guard_refusal(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        rows = "\n".join("3 2" for _ in range(30))
        big.write_text(f"30 2\n{rows}\n", encoding="utf-8")
        code = main(["solve-exact", "--in", str(big), "--out", str(tmp_path / "s.txt")])
        assert code == 5

    def test_one_machine_many_jobs(self, tmp_path, capsys):
        # m**n = 1 passes the guard; a search n levels deep would overflow the stack
        inst = generate_instance(n=1500, m=1, p_max=5, w_max=5, seed=1)
        f, out = tmp_path / "i.txt", tmp_path / "s.txt"
        f.write_text(write_instance(inst), encoding="utf-8")
        code, text = run(capsys, "solve-exact", "--in", str(f), "--out", str(out), "--all-optima")
        assert code == 0
        t, wspt = 0, 0
        for j in inst.wspt_ids:
            t += inst.job(j).p
            wspt += inst.job(j).w * t
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        assert (fields["objective"], fields["optimal_assignments"]) == (str(wspt), "1")
        assert parse_schedule(out.read_text(encoding="utf-8")).machines == (inst.wspt_ids,)

    def test_two_jobs_two_machines(self, tmp_path, capsys):
        f = tmp_path / "i.txt"
        f.write_text("2 2\n3 4\n5 2\n", encoding="utf-8")
        code, text = run(capsys, "solve-exact", "--in", str(f), "--out", str(tmp_path / "s.txt"))
        assert "objective: 22" in text  # each job alone: 3*4 + 5*2


class TestCheck:
    def test_demo_schedule_feasible_af(self, demo_file, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text("objective 67\nmachine 1: 1 3 4\nmachine 2: 2\n", encoding="utf-8")
        code, text = run(capsys, "check", "--in", str(demo_file), "--sched", str(sched),
                         "--form", "af")
        assert code == 0
        assert "feasible: True" in text
        assert "objective: 67" in text

    def test_non_wspt_schedule_mapping_error(self, demo_file, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text("objective 0\nmachine 1: 3 1 4\nmachine 2: 2\n", encoding="utf-8")
        code = main(["check", "--in", str(demo_file), "--sched", str(sched), "--form", "af"])
        assert code == 3

    def test_heuristic_output_always_ti_feasible(self, demo_file, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        run(capsys, "solve-heur", "--in", str(demo_file), "--seed", "2", "--iters", "20",
            "--out", str(sched))
        code, text = run(capsys, "check", "--in", str(demo_file), "--sched", str(sched),
                         "--form", "ti")
        assert code == 0
        assert "feasible: True" in text

    @pytest.mark.parametrize("lines", [2, 4])
    @pytest.mark.parametrize("form", ["ti", "af", "eaf"])
    def test_machine_count_must_be_m(self, form, lines, tmp_path, capsys):
        # every form refuses a schedule for the wrong number of machines
        inst, sched = tmp_path / "i.txt", tmp_path / "s.txt"
        inst.write_text("2 3\n1 1\n1 2\n", encoding="utf-8")
        machines = ["1", "2"] + [""] * (lines - 2)
        sched.write_text("objective 3\n" + "".join(
            f"machine {k}: {body}\n" for k, body in enumerate(machines, start=1)), encoding="utf-8")
        code = main(["check", "--in", str(inst), "--sched", str(sched), "--form", form])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == f"error: schedule has {lines} machines, the instance has 3\n"


    @pytest.mark.parametrize(("machines", "message"), [
        (["1 2 3 4"], "schedule has 1 machines, the instance has 2"),
        (["1 3 4", "2 9"], "schedule references unknown job id 9"),
        (["1 3", "2"], "schedule misses jobs [4]"),
    ])
    @pytest.mark.parametrize("form", ["ti", "af", "eaf"])
    def test_schedule_checked_before_the_build(self, form, machines, message, demo_file, tmp_path,
                                               capsys, monkeypatch):
        def build(*args):
            raise AssertionError("model built for a schedule that does not fit the instance")

        monkeypatch.setattr(cli, "_build_model", build)
        sched = tmp_path / "s.txt"
        sched.write_text("objective 0\n" + "".join(
            f"machine {k}: {body}\n" for k, body in enumerate(machines, start=1)), encoding="utf-8")
        code = main(["check", "--in", str(demo_file), "--sched", str(sched), "--form", form])
        assert (code, *capsys.readouterr()) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("form", ["ti", "af", "eaf"])
    @pytest.mark.parametrize(("jobs", "machine", "objective"), [
        # (2,2) and (4,4) share w/p = 1: WSPT with the id tie-break interleaves
        # their copies in the schedule solve-heur writes, while the eaf network
        # runs every copy of one type before the other (eaf refused job 19 at 24)
        ("3 2\n5 1\n2 2\n4 4\n" * 10, None, 4605),
        # the straight network runs job 1 before job 2 (af refused job 1 at 2)
        ("2 2\n2 2\n", "2 1", 12),
    ], ids=["heuristic-output", "equal-jobs"])
    def test_equal_ratio_jobs_map_in_any_order(self, jobs, machine, objective, form, tmp_path, capsys):
        inst, sched = tmp_path / "i.txt", tmp_path / "s.txt"
        inst.write_text(f"{jobs.count(chr(10))} 1\n{jobs}", encoding="utf-8")
        if machine is None:
            assert main(["solve-heur", "--in", str(inst), "--seed", "1", "--iters", "3", "--out", str(sched)]) == 0
            capsys.readouterr()
        else:
            sched.write_text(f"objective {objective}\nmachine 1: {machine}\n", encoding="utf-8")
        code, text = run(capsys, "check", "--in", str(inst), "--sched", str(sched), "--form", form)
        assert code == 0
        assert "feasible: True" in text and f"objective: {objective}" in text

    def test_machine_line_without_colon_refused(self, demo_file, tmp_path, capsys):
        # it was read as an empty machine, and job 2 reported missing
        sched = tmp_path / "s.txt"
        sched.write_text("objective 67\nmachine 1: 1 3 4\nmachine 2 2\n", encoding="utf-8")
        code = main(["check", "--in", str(demo_file), "--sched", str(sched), "--form", "af"])
        message = "line 3: expected 'machine k: ...', got 'machine 2 2'"
        assert (code, *capsys.readouterr()) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("token", ["1_0", "１"], ids=["underscore", "fullwidth-digit"])
    @pytest.mark.parametrize("command", ["model", "check"])
    def test_non_ascii_integer_in_instance_refused(self, command, token, tmp_path, capsys):
        inst, sched = tmp_path / "i.txt", tmp_path / "s.txt"
        inst.write_text(f"1 1\n{token} 1\n", encoding="utf-8")
        sched.write_text("objective 1\nmachine 1: 1\n", encoding="utf-8")
        argv = {"model": ["--out", str(tmp_path / "m.lp")], "check": ["--sched", str(sched)]}[command]
        code = main([command, "--in", str(inst), "--form", "af", *argv])
        assert (code, *capsys.readouterr()) == (3, "", f"error: line 2: expected integer, got {token!r}\n")

    @pytest.mark.parametrize("kind", ["instance", "schedule"])
    def test_overlong_integer_refused_by_the_guard(self, kind, demo_file, tmp_path, capsys):
        # int reads at most sys.get_int_max_str_digits() digits, 4,300 by default;
        # such a token was refused as not an integer, in a message that repeated it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python reads integers of any length")
        token = "1" + "0" * (limit + 699)
        if kind == "instance":
            inst = tmp_path / "i.txt"
            inst.write_text(f"1 1\n{token} 1\n", encoding="utf-8")
            code = main(["model", "--in", str(inst), "--form", "ti", "--out", str(tmp_path / "m.lp")])
        else:
            sched = tmp_path / "s.txt"
            sched.write_text(f"objective 67\nmachine 1: 1 3 4\nmachine 2: {token}\n", encoding="utf-8")
            code = main(["check", "--in", str(demo_file), "--sched", str(sched), "--form", "af"])
        line = 2 if kind == "instance" else 3
        message = f"refused: line {line}: an integer of {limit + 700} digits, above the limit of {limit} digits\n"
        assert (code, *capsys.readouterr()) == (5, "", message)

    def test_bad_tokens_quoted_by_a_prefix(self, demo_file, tmp_path, capsys):
        inst, sched = tmp_path / "i.txt", tmp_path / "s.txt"
        inst.write_text(f"1 1\n{'1' * 5000}x 1\n", encoding="utf-8")
        code = main(["model", "--in", str(inst), "--form", "ti", "--out", str(tmp_path / "m.lp")])
        prefix = "'" + "1" * 20 + "'..."
        assert (code, *capsys.readouterr()) == (3, "", f"error: line 2: expected integer, got {prefix}\n")
        sched.write_text(f"objective 67\nmachine 1 {'1' * 5000}\n", encoding="utf-8")
        code = main(["check", "--in", str(demo_file), "--sched", str(sched), "--form", "af"])
        message = "error: line 2: expected 'machine k: ...', got 'machine 1 1111111111'...\n"
        assert (code, *capsys.readouterr()) == (3, "", message)


class TestSolveExternal:
    @pytest.mark.parametrize("form", ["af", "eaf", "ti"])
    def test_demo_solved_externally(self, form, demo_file, tmp_path, capsys):
        from arcsched.instance import evaluate_schedule

        out = tmp_path / "s.txt"
        code, text = run(capsys, "solve-external", "--in", str(demo_file), "--form", form,
                         "--solver-cmd", SOLVER, "--out", str(out))
        assert code == 0
        assert "objective: 67" in text
        demo = parse_instance(demo_file.read_text(encoding="utf-8"))
        sched = parse_schedule(out.read_text(encoding="utf-8"))
        assert evaluate_schedule(demo, sched) == 67

    def test_degenerate_instance_float_output_rounds_cleanly(self, tmp_path, capsys):
        # larger instance: solver floats carry fuzz that must be rounded
        # on the integer variables before the exact feasibility check
        from arcsched.instance import evaluate_schedule, generate_instance, write_instance
        from arcsched.oracle import brute_force_optimal

        inst = generate_instance(n=12, m=3, p_max=20, w_max=20, seed=42)
        f = tmp_path / "i.txt"
        f.write_text(write_instance(inst), encoding="utf-8")
        out = tmp_path / "s.txt"
        code, text = run(capsys, "solve-external", "--in", str(f), "--form", "eaf",
                         "--solver-cmd", SOLVER, "--out", str(out))
        assert code == 0
        opt = brute_force_optimal(inst).optimum
        assert f"objective: {opt}" in text
        assert evaluate_schedule(inst, parse_schedule(out.read_text(encoding="utf-8"))) == opt

    def test_over_covered_type_decodes(self, demo_file, tmp_path, capsys):
        # demand rows are >= d, so this feasible solution may run job 3 twice
        solver = tmp_path / "solver.py"
        solver.write_text(
            "import sys\n"
            "names = 'x_0_2_1 x_2_7_2 x_7_8_3 x_0_1_3 x_1_5_4 L_5 ONE'.split()\n"
            "with open(sys.argv[2], 'w') as f:\n"
            "    f.writelines(f'{name} 1\\n' for name in names)\n",
            encoding="utf-8",
        )
        out = tmp_path / "s.txt"
        code, text = run(capsys, "solve-external", "--in", str(demo_file), "--form", "af",
                         "--solver-cmd", f"{sys.executable} {solver} {{model}} {{solution}}",
                         "--out", str(out))
        assert code == 0
        sched = parse_schedule(out.read_text(encoding="utf-8"))
        assert sorted(j for machine in sched.machines for j in machine) == [1, 2, 3, 4]
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        assert int(fields["objective"]) <= Fraction(fields["solver_objective"])

    # (form, solver script body, stderr); the script gets the model and solution paths
    FAILING_SOLVERS = {
        "solver_fails": (
            "af",
            "sys.stderr.write('no license\\n'); sys.exit(3)",
            "solver error: solver exited with 3; stderr:\nno license\n",
        ),
        "no_solution_file": ("eaf", "pass", "solver error: solver wrote no solution file\n"),
        "unparsable_line": (
            "af",
            "open(sys.argv[2], 'w').write('x_0_2_1 1 2\\n')",
            "solver error: unparsable solution file: solution line 1: expected 'name value',"
            " got 'x_0_2_1 1 2'\n",
        ),
        "non_ascii_digit": (
            "af",
            "open(sys.argv[2], 'w', encoding='utf-8').write('x_0_2_1 \\u0661\\n')",
            "solver error: unparsable solution file: solution line 1: bad numeric value '\u0661'\n",
        ),
        "zero_denominator": (
            "ti",
            "open(sys.argv[2], 'w').write('x_1_0 1/0\\n')",
            "solver error: unparsable solution file: solution line 1: bad numeric value '1/0'\n",
        ),
        "non_integral": (
            "af",
            "open(sys.argv[2], 'w').write('x_0_2_1 0.5\\nONE 1\\n')",
            "solver error: non-integral value 1/2 for integer variable x_0_2_1\n",
        ),
        # the demo's optimal flow, and a value on a name the model lacks: every
        # entry the solver wrote is read, so it is refused, not ignored
        "non_integral_stray": (
            "af",
            demo_flow_solver("x_stray", 0.5),
            "solver error: non-integral value 1/2 for integer variable x_stray\n",
        ),
        "all_zeros": (
            "ti",
            "open(sys.argv[2], 'w').write('x_1_0 0\\n')",
            "solver error: solver solution violates the model (artifact bug): constraint assign_1,"
            " constraint assign_2, constraint assign_3, constraint assign_4\n",
        ),
        **{
            f"{case}_{form}": (
                form,
                demo_flow_solver(arc, value),
                f"solver error: solver solution violates the model (artifact bug): {violations}\n",
            )
            for case, (arc, value, violations) in BAD_FLOWS.items()
            for form in ("af", "eaf")
        },
    }

    @pytest.mark.parametrize("case", sorted(FAILING_SOLVERS))
    def test_solver_failure_exits_4(self, case, demo_file, tmp_path, capsys):
        form, body, stderr = self.FAILING_SOLVERS[case]
        solver = tmp_path / "solver.py"
        solver.write_text(f"import sys\n{body}\n", encoding="utf-8")
        out = tmp_path / "s.txt"
        code = main(["solve-external", "--in", str(demo_file), "--form", form,
                     "--solver-cmd", f"{sys.executable} {solver} {{model}} {{solution}}",
                     "--out", str(out)])
        assert (code, *capsys.readouterr()) == (4, "", stderr)
        assert not out.exists()

    def test_missing_binary_exit_code(self, demo_file, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code = main(["solve-external", "--in", str(demo_file), "--form", "af",
                     "--solver-cmd", "/no/such/solver {model} {solution}",
                     "--out", str(out)])
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize(
        "template", ["{extra} {model} {solution}", "solver {0}", "solver {model", "solver 'unclosed", "  "]
    )
    def test_bad_template_is_a_solver_error(self, template, demo_file, tmp_path, capsys):
        code = main(["solve-external", "--in", str(demo_file), "--form", "eaf",
                     "--solver-cmd", template, "--out", str(tmp_path / "s.txt")])
        assert code == 4
        assert capsys.readouterr().err.startswith("solver error: ")

    def test_temp_dir_with_space(self, demo_file, tmp_path, capsys, monkeypatch):
        spaced = tmp_path / "tmp dir"
        spaced.mkdir()
        monkeypatch.setenv("TMPDIR", str(spaced))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        code, text = run(capsys, "solve-external", "--in", str(demo_file), "--form", "eaf",
                         "--solver-cmd", SOLVER)
        assert code == 0
        assert "objective: 67" in text
        assert tempfile.gettempdir() == str(spaced)

    def test_env_var_supplies_command(self, demo_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ARCSCHED_SOLVER_CMD", SOLVER)
        code, text = run(capsys, "solve-external", "--in", str(demo_file), "--form", "af")
        assert code == 0
        assert "objective: 67" in text


def test_console_entry_point(tmp_path):
    out = tmp_path / "i.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "arcsched.cli", "gen", "--n", "4", "--m", "2",
         "--pmax", "9", "--wmax", "9", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
