"""Readers for what the arcsched CLI writes, independent of the package.

The benchmark checks the program's outputs with its own code: schedules
are re-evaluated here, and model sizes are counted from the emitted
files, so a change to arcsched's in-memory records cannot change them.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

Jobs = list[tuple[int, int]]  # (p, w) of jobs 1..n


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stdout_fields(text: str) -> dict[str, str]:
    """``key: value`` lines of a CLI run report."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def write_instance(path: Path, m: int, jobs: Jobs) -> None:
    lines = [f"{len(jobs)} {m}"] + [f"{p} {w}" for p, w in jobs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def wspt_sorted(jobs: Jobs) -> list[int]:
    """Job ids by non-increasing w/p (exact), ties by smaller id."""
    from functools import cmp_to_key

    def cmp(i: int, k: int) -> int:
        (pi, wi), (pk, wk) = jobs[i - 1], jobs[k - 1]
        left, right = wi * pk, wk * pi
        if left != right:
            return -1 if left > right else 1
        return -1 if i < k else 1

    return sorted(range(1, len(jobs) + 1), key=cmp_to_key(cmp))


def list_schedule(m: int, jobs: Jobs) -> list[list[int]]:
    """WSPT list scheduling: each job in WSPT order goes to the least
    loaded machine (lowest index on ties), so machines stay WSPT-sorted."""
    loads = [0] * m
    machines: list[list[int]] = [[] for _ in range(m)]
    for j in wspt_sorted(jobs):
        k = min(range(m), key=lambda k: (loads[k], k))
        loads[k] += jobs[j - 1][0]
        machines[k].append(j)
    return machines


def schedule_value(m: int, jobs: Jobs, machines: list[list[int]]) -> int:
    """Total weighted completion time; raises ValueError unless the
    machines partition jobs 1..n over exactly m machines."""
    if len(machines) != m:
        raise ValueError(f"{len(machines)} machines, expected {m}")
    seen = sorted(j for mach in machines for j in mach)
    if seen != list(range(1, len(jobs) + 1)):
        raise ValueError("machines do not partition the jobs")
    total = 0
    for mach in machines:
        t = 0
        for j in mach:
            p, w = jobs[j - 1]
            t += p
            total += w * t
    return total


def write_schedule(path: Path, m: int, jobs: Jobs, machines: list[list[int]]) -> None:
    lines = [f"objective {schedule_value(m, jobs, machines)}"]
    lines += [f"machine {k}: {' '.join(map(str, mach))}".rstrip() for k, mach in enumerate(machines, 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_schedule(path: Path) -> tuple[int, list[list[int]]]:
    """(objective line value, machines) of a schedule file."""
    objective = None
    machines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("objective "):
            objective = int(line.split()[1])
        elif line.startswith("machine "):
            machines.append([int(tok) for tok in line.partition(":")[2].split()])
    if objective is None:
        raise ValueError(f"{path.name}: no objective line")
    return objective, machines


def count_mps(path: Path) -> tuple[int, int]:
    """(columns, constraint nonzeros) from the COLUMNS section of an MPS file."""
    columns = set()
    nnz = 0
    in_columns = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(" "):
                in_columns = line.startswith("COLUMNS")
                continue
            if not in_columns or "'MARKER'" in line:
                continue
            tokens = line.split()
            columns.add(tokens[0])
            nnz += sum(1 for row in tokens[1::2] if row != "COST")
    return len(columns), nnz


_NAME = re.compile(r"\b[A-Za-z]\w*\b(?!:)")


def count_lp(path: Path) -> tuple[int, int]:
    """(variables, constraint nonzeros) of an LP file: variables are the
    names used anywhere, nonzeros the names in the Subject To section."""
    names: set[str] = set()
    nnz = 0
    section = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(" "):
                section = line.strip()
                continue
            found = _NAME.findall(line)
            names.update(found)
            if section == "Subject To":
                nnz += len(found)
    return len(names), nnz


def count_dot(path: Path) -> tuple[int, int]:
    """(nodes, arcs) of a DOT file written by ``arcsched model --dot``."""
    nodes = arcs = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "->" in line:
                arcs += 1
            elif line.strip().rstrip(";").isdigit():
                nodes += 1
    return nodes, arcs
