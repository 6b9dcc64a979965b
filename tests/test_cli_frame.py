"""The command frame: every subcommand's report byte for byte, the streams
of a failing command, and edge-shaped inputs that must never raise."""

import re
import sys
from pathlib import Path

import pytest

from arcsched.cli import main
from arcsched.instance import make_instance, write_instance

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
        "time.build_ms: <ms>\ntime.solve_ms: <ms>\ntime.decode_ms: <ms>\n"
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
