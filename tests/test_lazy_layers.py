"""A command runs only the layers it uses, and loads no more of the
standard library than they need.

``arcsched`` imports no layer, and ``cli`` binds its layer modules lazily:
each is registered in ``sys.modules`` on import, but its code runs on the
first attribute access. A fresh interpreter records, through the ``exec``
audit event, every code object that it executes as a module, and the
modules that ``import arcsched.cli`` and the command added to
``sys.modules``. The records are NamedTuples or plain classes, so no
command loads ``dataclasses`` (and ``inspect`` with it), and the WSPT
order takes an integer key, so ``solve-heur`` loads no ``fractions``.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched.instance import generate_instance, make_instance, write_instance
from arcsched.milp import MilpModel

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("instance", "bounds", "flowgraph", "milp", "heuristic", "oracle", "cli")
CHILD = """
import json, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", "")))
before = set(sys.modules)
import arcsched.cli
code = arcsched.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "ran": sorted(ran), "registered": sorted(sys.modules),
                  "loaded": sorted(set(sys.modules) - before)}))
"""


def run_fresh(*argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, timeout=60, env=env)
    record = json.loads(res.stdout.splitlines()[-1])
    record["layers_ran"] = {Path(f).stem for f in record["ran"] if Path(f).parent.name == "arcsched"}
    return record


@pytest.fixture
def instances(tmp_path) -> dict[str, Path]:
    paths = {"h20": tmp_path / "h20.txt", "g30": tmp_path / "g30.txt", "s10": tmp_path / "s10.txt"}
    paths["h20"].write_text(write_instance(generate_instance(20, 3, 20, 20, 1)), encoding="utf-8")
    paths["g30"].write_text(write_instance(generate_instance(30, 2, 20, 20, 1)), encoding="utf-8")
    paths["s10"].write_text(write_instance(generate_instance(10, 2, 20, 20, 1)), encoding="utf-8")
    return paths


@pytest.mark.parametrize(
    "label, argv, code, layers",
    [
        ("h20", ["solve-heur", "--seed", "1", "--iters", "3"], 0, {"heuristic"}),
        # 2**30 assignments: the oracle's guard refuses before any search
        ("g30", ["solve-exact"], 5, {"oracle"}),
    ],
)
def test_command_runs_only_its_layers(instances, tmp_path, label, argv, code, layers):
    record = run_fresh(argv[0], "--in", str(instances[label]), *argv[1:], "--out", str(tmp_path / "out.sched"))
    assert record["code"] == code
    # the package, cli and the instance layer (with its generator) run for every command
    assert record["layers_ran"] == layers | {"__init__", "cli", "instance", "rng"}
    assert not {"milp", "flowgraph", "bounds"} & record["layers_ran"]
    # every layer is registered, so tooling can reach it through sys.modules
    assert {f"arcsched.{layer}" for layer in LAYERS} <= set(record["registered"])


def test_search_loads_no_record_or_fraction_machinery(instances, tmp_path):
    record = run_fresh("solve-heur", "--in", str(instances["h20"]), "--seed", "1", "--iters", "3",
                       "--out", str(tmp_path / "out.sched"))
    assert record["code"] == 0
    assert "arcsched.instance" in record["loaded"]
    assert not {"dataclasses", "inspect", "fractions"} & set(record["loaded"])


@pytest.mark.parametrize(
    "label, argv, code",
    [
        ("h20", ["bounds"], 0),
        ("h20", ["model", "--form", "eaf", "--out", "{tmp}/m.lp"], 0),
        ("h20", ["model", "--form", "pti", "--format", "mps", "--out", "{tmp}/m.mps"], 0),
        ("s10", ["solve-exact", "--out", "{tmp}/o.sched"], 0),
        ("g30", ["solve-exact", "--out", "{tmp}/o.sched"], 5),
    ],
)
def test_commands_load_no_dataclasses(instances, tmp_path, label, argv, code):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    record = run_fresh(argv[0], "--in", str(instances[label]), *argv[1:])
    assert record["code"] == code
    assert not {"dataclasses", "inspect"} & set(record["loaded"])


def test_models_share_no_list():
    a, b = MilpModel("a"), MilpModel("a")
    a.blocks.append(None)
    a.rows.append(None)
    a.quad_terms.append((0, 0, 1))
    assert (b.blocks, b.rows, b.quad_terms) == ([], [], [])


# the last range fills the top bit, where two ratios come closest relative to p_max
sizes = st.one_of(st.integers(1, 9), st.integers(1, 10**6), st.integers(1, 10**30), st.integers(2**99, 2**100 - 1))


@st.composite
def job_sets(draw) -> list[tuple[int, int]]:
    """(p, w) pairs, some with a ratio equal to another's, some with the
    next ratio above it of a denominator up to 4 times as large (a Farey
    neighbour: w'/p' - w/p = 1 / (p p'), the closest two ratios can be)."""
    pairs = draw(st.lists(st.tuples(sizes, sizes), min_size=1, max_size=20))
    for p, w in draw(st.lists(st.sampled_from(pairs), max_size=10)):
        g = gcd(p, w)
        p, w = p // g, w // g
        if draw(st.booleans()):
            k = draw(sizes)
            pairs.append((p * k, w * k))
        else:
            q = -pow(w, -1, p) % p or p  # w q = -1 (mod p), with 1 <= q <= p
            t = draw(st.integers(0, 3))
            pairs.append((q + t * p, (1 + w * q) // p + t * w))
    return draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(pairs=job_sets())
def test_wspt_order_equals_the_fraction_key(pairs):
    inst = make_instance(2, pairs)
    reference = sorted(inst.jobs, key=lambda j: (Fraction(-j.w, j.p), j.id))
    assert inst.wspt_ids == tuple(j.id for j in reference)
