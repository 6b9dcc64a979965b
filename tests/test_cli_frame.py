"""The command frame: every subcommand's report byte for byte, the streams
of a failing command, and edge-shaped inputs that must never raise."""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched.cli import main
from arcsched.instance import Instance, make_instance, write_instance

from conftest import DEMO_TEXT

SHIM = Path(__file__).parent / "lp_shim.py"

DIGEST = "instance.n: 4\ninstance.m: 2\ninstance.sum_p: 12\ninstance.p_max: 5\n"

# stdout of each subcommand on the demo, with the time.*_ms values masked
# and the temporary directory written as <tmp>
REPORTS = {
    "gen": (
        ["gen", "--n", "4", "--m", "2", "--pmax", "9", "--wmax", "9", "--seed", "1",
         "--out", "{tmp}/g.txt"],
        "command: gen\n"
        "instance.n: 4\ninstance.m: 2\ninstance.sum_p: 27\ninstance.p_max: 9\n"
        "time.generate_ms: <ms>\n"
        "wrote: <tmp>/g.txt\n",
    ),
    "bounds": (
        ["bounds", "--in", "{demo}"],
        "command: bounds\n" + DIGEST
        + "H_min: 7/2\nH_max: 17/2\nT: 8\nT_prime: 4\n"
        "time.bounds_ms: <ms>\n"
        "window job 1: [0, 5]\nwindow job 2: [0, 3]\nwindow job 3: [0, 6]\nwindow job 4: [0, 4]\n",
    ),
    "model": (
        ["model", "--in", "{demo}", "--form", "eaf", "--out", "{tmp}/m.lp", "--dot", "{tmp}/g.dot"],
        "command: model\n" + DIGEST
        + "form: eaf\nvariables: 15\nconstraints: 13\nnonzeros: 40\n"
        "nodes: 9\njob_arcs: 10\nloss_arcs: 5\n"
        "time.build_ms: <ms>\ntime.emit_ms: <ms>\n"
        "wrote: <tmp>/g.dot\nwrote: <tmp>/m.lp\n",
    ),
    "compare": (
        ["compare", "--n", "6", "--m", "2", "--pmax", "9", "--wmax", "9", "--seeds", "2",
         "--out", "{tmp}/c.csv"],
        "command: compare\n"
        "instances: 2\nmean_vars_ti: 91.5\nmean_vars_af: 44.0\nmean_vars_eaf: 31.0\n"
        "mean_red_af_vs_ti_pct: 51.91\nmean_red_eaf_vs_af_pct: 29.55\n"
        "time.compare_ms: <ms>\n"
        "wrote: <tmp>/c.csv\n",
    ),
    "solve-heur": (
        ["solve-heur", "--in", "{demo}", "--seed", "5", "--iters", "50", "--out", "{tmp}/h.txt"],
        "command: solve-heur\n" + DIGEST
        + "objective: 67\niterations: 50\n"
        "time.ils_ms: <ms>\n"
        "wrote: <tmp>/h.txt\n",
    ),
    "solve-exact": (
        ["solve-exact", "--in", "{demo}", "--all-optima", "--out", "{tmp}/e.txt"],
        "command: solve-exact\n" + DIGEST
        + "objective: 67\noptimal_assignments: 2\n"
        "time.oracle_ms: <ms>\n"
        "wrote: <tmp>/e.txt\n",
    ),
    "check": (
        ["check", "--in", "{demo}", "--sched", "{sched}", "--form", "af"],
        "command: check\n" + DIGEST
        + "form: af\nfeasible: True\nobjective: 67\n"
        "time.check_ms: <ms>\n",
    ),
    "solve-external": (
        ["solve-external", "--in", "{demo}", "--form", "af", "--solver-cmd", "{shim}",
         "--out", "{tmp}/x.txt"],
        "command: solve-external\n" + DIGEST
        + "form: af\nsolver_objective: 67\nobjective: 67\n"
        "time.build_ms: <ms>\ntime.write_ms: <ms>\ntime.solve_ms: <ms>\ntime.decode_ms: <ms>\n"
        "wrote: <tmp>/x.txt\n",
    ),
}

# one failure per exit code: its status and the start of its stderr
FAILURES = {
    "input": (["model", "--in", "{tmp}/absent.txt", "--form", "ti", "--out", "{tmp}/m.lp"],
              3, "error: "),
    "solver": (["solve-external", "--in", "{demo}", "--form", "af",
                "--solver-cmd", "/no/such/solver {{model}} {{solution}}"], 4, "solver error: "),
    "guard": (["solve-exact", "--in", "{big}", "--out", "{tmp}/e.txt"], 5, "refused: "),
}


@pytest.fixture
def paths(tmp_path) -> dict:
    demo = tmp_path / "demo.txt"
    demo.write_text(DEMO_TEXT, encoding="utf-8")
    sched = tmp_path / "s.txt"
    sched.write_text("objective 67\nmachine 1: 1 3 4\nmachine 2: 2\n", encoding="utf-8")
    big = tmp_path / "big.txt"
    big.write_text(write_instance(make_instance(2, [(3, 2)] * 30)), encoding="utf-8")
    shim = f"{sys.executable} {SHIM} {{model}} {{solution}}"
    return {"tmp": tmp_path, "demo": demo, "sched": sched, "big": big, "shim": shim}


def expand(argv: list[str], paths: dict) -> list[str]:
    # the solver template is substituted whole, so its own braces survive
    return [paths["shim"] if a == "{shim}" else a.format(**paths) for a in argv]


def masked(text: str, tmp_path: Path) -> str:
    return re.sub(r"^(time\.\w+_ms): \S+$", r"\1: <ms>", text, flags=re.M).replace(str(tmp_path), "<tmp>")


@pytest.mark.parametrize("key", REPORTS)
def test_report_bytes(key, paths, capsys):
    argv, expected = REPORTS[key]
    code = main(expand(argv, paths))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert masked(out, paths["tmp"]) == expected


@pytest.mark.parametrize("key", FAILURES)
def test_failure_prints_no_report(key, paths, capsys):
    argv, status, prefix = FAILURES[key]
    code = main(expand(argv, paths))
    out, err = capsys.readouterr()
    assert code == status
    assert out == ""
    assert err.startswith(prefix)


# shape: (m, the (p, w) of each job)
EDGE_INSTANCES = {
    "one-job": (1, [(3, 2)]),
    "more-machines": (4, [(2, 1), (4, 3)]),
    "all-equal": (2, [(3, 5)] * 4),
    "unit-p": (2, [(1, 4), (1, 1), (1, 7)]),
    "huge-p": (2, [(10**12, 3), (2, 5)]),
}


@pytest.mark.parametrize("shape", EDGE_INSTANCES)
def test_edge_inputs_exit_cleanly(shape, tmp_path, capsys):
    # no valid input raises out of main: each command succeeds with a report
    # or is refused by a size guard with nothing on stdout
    inst = make_instance(*EDGE_INSTANCES[shape])
    path, sched = tmp_path / "i.txt", tmp_path / "s.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    commands = [
        ["bounds", "--in", str(path)],
        ["solve-heur", "--in", str(path), "--seed", "1", "--iters", "3", "--out", str(sched)],
        ["solve-exact", "--in", str(path), "--out", str(sched)],
        *(["model", "--in", str(path), "--form", form, "--out", str(tmp_path / "m.lp")]
          for form in ("ti", "ciqp", "pti", "af", "eaf")),
        *(["check", "--in", str(path), "--sched", str(sched), "--form", form]
          for form in ("ti", "af", "eaf")),
    ]
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 5), argv
        assert out.startswith(f"command: {argv[0]}\n") == (code == 0), argv
        assert (out == "") == (code == 5), argv
        if shape == "huge-p" and "--form" in argv and argv[argv.index("--form") + 1] in ("af", "eaf"):
            # the flow networks hold only the few points they reach, whatever p
            assert code == 0, argv


@st.composite
def edge_shapes(draw) -> Instance:
    shape = draw(st.sampled_from(["one-job", "more-machines", "all-equal", "unit-p", "one-machine", "huge-p", "huge-m"]))
    small = st.integers(1, 20)
    if shape == "one-job":
        return make_instance(draw(st.integers(1, 50)), [(draw(small), draw(small))])
    if shape == "more-machines":
        n = draw(st.integers(1, 6))
        return make_instance(draw(st.integers(n + 1, 12)), draw(st.lists(st.tuples(small, small), min_size=n, max_size=n)))
    if shape == "all-equal":
        return make_instance(draw(st.integers(1, 3)), [(draw(small), draw(small))] * draw(st.integers(1, 12)))
    if shape == "unit-p":
        return make_instance(draw(st.integers(1, 4)), [(1, w) for w in draw(st.lists(small, min_size=1, max_size=12))])
    if shape == "one-machine":
        return make_instance(1, draw(st.lists(st.tuples(st.integers(1, 9), small), min_size=10, max_size=30)))
    # The guards bound memory, not time, and the ti and pti builds make rows
    # over the horizon: at p = 10**6 one job's ti model takes 6-11 s, at
    # p = 1.1 * 10**7 71 s. So p is drawn from 10**8 up, where the guards
    # refuse those two. The af and eaf networks hold only the points they
    # reach, a few here, so they are built; the small jobs beside it keep
    # bounds, solve-heur and ciqp running.
    if shape == "huge-p":
        huge = st.tuples(st.integers(10**8, 10**12), small)
        jobs = draw(st.lists(huge, min_size=1, max_size=2)) + draw(st.lists(st.tuples(small, small), max_size=2))
        return make_instance(draw(st.integers(1, 3)), jobs)
    # Each command past the machine guard makes a list or a model row per
    # machine: with three jobs, ciqp takes 1.1 s at 2 * 10**5 machines and
    # 2.7 s at 10**6. So m is drawn next to 10**5, where every command runs,
    # and above 2 * 10**7, where the machine and model guards refuse. Two
    # jobs of p >= 40 make pti's n m (2 T + 2) nonzeros pass its guard at
    # m = 10**5 too; admitted, it would build for 9 s.
    m = draw(st.one_of(st.integers(10**5, 11 * 10**4), st.integers(2 * 10**7, 10**9)))
    return make_instance(m, draw(st.lists(st.tuples(st.integers(40, 100), small), min_size=2, max_size=2)))


REDUCTION_FLAGS = ["--no-windows", "--no-types", "--no-tprime", "--strict-figure"]


@given(inst=edge_shapes(), flags=st.lists(st.sampled_from(REDUCTION_FLAGS), unique=True))
@settings(max_examples=25, deadline=None)
def test_edge_shapes_exit_cleanly_through_every_command(inst, flags):
    # each command succeeds with its report, or stops with a message and
    # nothing on stdout: 3 for input the model cannot take (a schedule
    # outside a reduced network), 5 for a size guard; never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path, sched, out = Path(tmp) / "i.txt", Path(tmp) / "s.txt", str(Path(tmp) / "m")
        path.write_text(write_instance(inst), encoding="utf-8")
        commands = [
            ["bounds", "--in", str(path)],
            ["solve-heur", "--in", str(path), "--seed", "1", "--iters", "3", "--out", str(sched)],
            *(["model", "--in", str(path), "--form", form, "--format", fmt, "--out", out]
              for form in ("ti", "ciqp", "pti") for fmt in ("lp", "mps") if (form, fmt) != ("ciqp", "mps")),
            *(["model", "--in", str(path), "--form", form, "--format", fmt, "--out", out, "--dot", out + ".dot", *flags]
              for form in ("af", "eaf") for fmt in ("lp", "mps")),
            *(["check", "--in", str(path), "--sched", str(sched), "--form", form, *flags] for form in ("ti", "af", "eaf")),
        ]
        for argv in commands:
            if argv[0] == "check" and not sched.exists():
                break  # solve-heur was refused, so there is no schedule to check
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out_text, err_text = stdout.getvalue(), stderr.getvalue()
            assert code in (0, 3, 5), (argv, err_text)
            assert "Traceback" not in err_text, argv
            if code == 0:
                assert out_text.startswith(f"command: {argv[0]}\n") and err_text == "", argv
            else:
                assert out_text == "" and err_text.startswith("error: " if code == 3 else "refused: "), argv
