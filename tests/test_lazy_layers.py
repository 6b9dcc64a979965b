"""A command runs only the layers it uses.

``arcsched`` imports no layer, and ``cli`` binds its layer modules lazily:
each is registered in ``sys.modules`` on import, but its code runs on the
first attribute access. A fresh interpreter records, through the ``exec``
audit event, every code object that it executes as a module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcsched.instance import generate_instance, write_instance

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("instance", "bounds", "flowgraph", "milp", "heuristic", "oracle", "cli")
CHILD = """
import json, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", "")))
import arcsched.cli
code = arcsched.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "ran": sorted(ran), "registered": sorted(sys.modules)}))
"""


def run_fresh(*argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, timeout=60, env=env)
    record = json.loads(res.stdout.splitlines()[-1])
    record["layers_ran"] = {Path(f).stem for f in record["ran"] if Path(f).parent.name == "arcsched"}
    return record


@pytest.fixture
def instances(tmp_path) -> dict[str, Path]:
    paths = {"h20": tmp_path / "h20.txt", "g30": tmp_path / "g30.txt"}
    paths["h20"].write_text(write_instance(generate_instance(20, 3, 20, 20, 1)), encoding="utf-8")
    paths["g30"].write_text(write_instance(generate_instance(30, 2, 20, 20, 1)), encoding="utf-8")
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
