"""Problem instances, schedules and the WSPT order.

An instance is a set of n jobs, each with an integer processing time p and
an integer penalty weight w, to be run on m identical machines. A schedule
assigns every job to one machine and fixes the processing order on each
machine; jobs run back to back from time 0 (idle time only trails, since
delaying a job can never reduce its weighted completion time).

File formats
------------
Instance (UTF-8 text): comment lines start with '#'; the first non-comment
line is ``n m``; then n lines ``p_j w_j``. All integers, whitespace
separated; an integer is an optional sign and the ASCII digits 0-9.

Schedule (UTF-8 text): line ``objective V``; then m lines
``machine k: j1 j2 ...`` with 1-based job ids in processing order. An empty
machine emits ``machine k:``. A schedule with other than m machine lines
fails validation against its instance.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .rng import SplitMix64


class ParseError(ValueError):
    """Malformed instance or schedule text; message names the line."""


class ValidationError(ValueError):
    """A value object violates its invariants."""


# The CLI refuses (exit 5) an input whose estimated peak memory exceeds
# MAX_MODEL_BYTES: a model, the swap tables or machine pairs of a search, or
# the machines of a schedule. The budget leaves room on an 8 GB host.
MAX_MODEL_BYTES = 6 * 10**9

# Every guard's rates, in peak RSS per priced unit: a guard's need is its
# counts times these, refused by check_bytes. Each rate is measured over the
# commands that build what it prices, less the same command on 2 jobs, and
# tests/test_machine_guard.py checks it on its worst shapes.
BYTES_PER = {
    # ti, pti and ciqp per nonzero, exact counts from the instance: the largest
    # measured over LP and MPS, m = 2 and 4, p and w in U[1, 100]; they differ
    # because per-variable records and names weigh more where a variable has
    # few entries
    "ti nonzero": 142,
    "pti nonzero": 462,
    "ciqp nonzero": 380,
    # ti per row, its n assignment and T capacity rows: 20% above 1,225 B, the
    # MPS write of one job of p = 10^5 on 3 machines (T = p, as many rows as
    # nonzeros; LP and check take about 320 B)
    "ti row": 1470,
    # af and eaf per nonzero, counted as the network is built: 20% above
    # 106.6 B (solve-external, eaf at n = 1000, m = 2; see README)
    "flow nonzero": 128,
    # af and eaf per job of the instance: 20% above 1,112 B, the MPS write of
    # 2 * 10^5 unit jobs on one machine under --no-windows, a chain of as many
    # nodes as jobs (parsing the file takes about 340 B of it)
    "flow job": 1340,
    # the search's swap tables per job pair (i, u) of the largest machine pair,
    # n^2 / 4: it covers the tables all pairs keep, up to twice that count, and
    # a scan's transient ones; 163-222 B measured (n = 300-600, m = 2-50), plus 13%
    "swap-table entry": 250,
    # the search per unit of min(m, n + 1)^2, two states' machine pairs: 635 B
    # measured with one job per machine (n = 300 and 500), where the snapshot
    # shares most pairs with the current state; doubled for two that share none
    "machine pair": 1300,
    # a schedule per machine: solve-heur at n = 2, m = 10^5, the largest of the
    # commands that build one (solve-exact, solve-external: at most 117 B)
    "machine": 367,
}


class ModelSizeError(ValueError):
    """A model, a search or the machines of a schedule would need more than
    MAX_MODEL_BYTES, an af or eaf objective coefficient or the oracle's m**n
    passes its limit, or an input integer has more digits than ``int`` reads."""


def approx(num: int, den: int = 1) -> str:
    """num / den (num >= 0, den > 0) to three significant digits, as
    ``format(num / den, ".3g")`` writes it; a number past the float range
    is first scaled down by a power of ten, which the exponent then adds."""
    shift = max(0, (num.bit_length() - den.bit_length()) * 30103 // 100000 - 300)
    text = format(num / (den * 10**shift), ".3g")  # int division rounds once, to the nearest float
    if not shift:
        return text
    mantissa, _, exponent = text.partition("e")
    return f"{mantissa}e{int(exponent) + shift:+03d}"


def check_bytes(need: int, what: str) -> None:
    """Refuse (ModelSizeError) a need of memory above MAX_MODEL_BYTES; the
    message is ``what`` followed by the need and the guard, in GB."""
    if need > MAX_MODEL_BYTES:
        raise ModelSizeError(
            f"{what} about {approx(need, 10**9)} GB, above the model guard of {approx(MAX_MODEL_BYTES, 10**9)} GB"
        )


class Job(NamedTuple):
    """One job: 1-based id, processing time p >= 1, weight w >= 1."""

    id: int
    p: int
    w: int


class _InstanceFields(NamedTuple):
    n: int
    m: int
    jobs: tuple[Job, ...]


class Instance(_InstanceFields):
    """n jobs on m machines, checked on construction. A tuple of its fields,
    so eq and hash are field-based; the cached properties live in the
    instance dict, which neither reads."""

    def __new__(cls, n: int, m: int, jobs: tuple[Job, ...]):
        self = super().__new__(cls, n, m, jobs)
        if n < 1 or m < 1:
            raise ValidationError(f"need n >= 1 and m >= 1, got n={n} m={m}")
        if len(jobs) != n:
            raise ValidationError(f"expected {n} jobs, got {len(jobs)}")
        for pos, job in enumerate(jobs, start=1):
            if job.id != pos:
                raise ValidationError(f"job ids must be 1..n in order; position {pos} has id {job.id}")
            if job.p < 1:
                raise ValidationError(f"job {job.id}: processing time must be >= 1, got {job.p}")
            if job.w < 1:
                raise ValidationError(f"job {job.id}: weight must be >= 1, got {job.w}")
        return self

    @property
    def total_p(self) -> int:
        return sum(j.p for j in self.jobs)

    @property
    def p_max(self) -> int:
        return max(j.p for j in self.jobs)

    def job(self, job_id: int) -> Job:
        return self.jobs[job_id - 1]

    @cached_property
    def wspt_ids(self) -> tuple[int, ...]:
        """Job ids in WSPT order: non-increasing w/p, ties by smaller id.

        The only WSPT sort in the package, taken once per instance by an
        exact integer key: floor(w 2^s / p) with s = 2 bits(p_max) + 1. Two
        ratios that differ do so by at least 1 / (p_a p_b) > 2^-(s - 1), so
        their keys differ by at least 1 in the same direction, and equal
        ratios get equal keys. The sort is stable over jobs in id order,
        so ties keep the smaller id first.
        """
        s = 2 * self.p_max.bit_length() + 1
        return tuple(j.id for j in sorted(self.jobs, key=lambda j: -((j.w << s) // j.p)))

    @cached_property
    def wspt_ranks(self) -> dict[int, int]:
        """Job id -> 0-based position in ``wspt_ids``, cached alike."""
        return {j: r for r, j in enumerate(self.wspt_ids)}


def make_instance(m: int, pw_pairs: Sequence[tuple[int, int]]) -> Instance:
    """Build an Instance from (p, w) pairs, assigning ids 1..n in order."""
    jobs = tuple(Job(i, p, w) for i, (p, w) in enumerate(pw_pairs, start=1))
    return Instance(n=len(jobs), m=m, jobs=jobs)


class JobType(NamedTuple):
    """Jobs merged by identical (p, w): multiplicity d, member job ids."""

    p: int
    w: int
    d: int
    members: tuple[int, ...]


class Schedule(NamedTuple):
    """Per-machine job-id sequences; the lists partition 1..n."""

    machines: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.machines)


def _excerpt(text: str) -> str:
    """``text`` quoted as a message shows it: whole up to 20 characters,
    else its first 20 and "..."."""
    return repr(text) if len(text) <= 20 else repr(text[:20]) + "..."


def _integer(tok: str, lineno: int) -> int | None:
    """``tok`` read as an optional sign and the ASCII digits 0-9, or None
    for any other token (``int`` alone reads "1_0" as 10 and takes the
    digits of other scripts).

    Raises:
        ModelSizeError: the token has more digits than ``int`` converts
            (``sys.get_int_max_str_digits()``, 4,300 by default).
    """
    digits = tok[1:] if tok[0] in "+-" else tok
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(tok)
    except ValueError:  # sign and digits, so only int's digit limit refuses it
        raise ModelSizeError(
            f"line {lineno}: an integer of {len(digits)} digits, above the limit of"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_instance(text: str) -> Instance:
    """Parse instance text, skipping '#' comments and blank lines.

    Raises:
        ParseError: malformed text, naming the line.
        ModelSizeError: an integer too long to read (``_integer``).
    """
    records: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        values = []
        for tok in line.split():
            value = _integer(tok, lineno)
            if value is None:
                raise ParseError(f"line {lineno}: expected integer, got {_excerpt(tok)}")
            values.append(value)
        records.append((lineno, values))

    if not records:
        raise ParseError("line 1: missing header 'n m'")
    header_line, header = records[0]
    if len(header) != 2:
        raise ParseError(f"line {header_line}: header must be 'n m', got {len(header)} values")
    n, m = header
    if n < 1 or m < 1:
        raise ParseError(f"line {header_line}: n and m must be >= 1, got n={n} m={m}")
    body = records[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} job lines after the header, found {len(body)}")

    jobs = []
    for idx, (lineno, values) in enumerate(body, start=1):
        if len(values) != 2:
            raise ParseError(f"line {lineno}: job record must be 'p w', got {len(values)} values")
        p, w = values
        if p < 1:
            raise ParseError(f"line {lineno}: processing time must be >= 1, got {p}")
        if w < 1:
            raise ParseError(f"line {lineno}: weight must be >= 1, got {w}")
        jobs.append(Job(idx, p, w))
    return Instance(n=n, m=m, jobs=tuple(jobs))


def write_instance(inst: Instance) -> str:
    lines = [f"{inst.n} {inst.m}"]
    lines.extend(f"{j.p} {j.w}" for j in inst.jobs)
    return "\n".join(lines) + "\n"


def generate_instance(n: int, m: int, p_max: int, w_max: int, seed: int) -> Instance:
    """Draw p_j uniform on {1..p_max} and w_j uniform on {1..w_max}.

    Uses the SplitMix64 stream seeded by ``seed``; per job, p is drawn
    before w. Identical arguments give byte-identical instances everywhere.
    """
    if n < 1 or m < 1 or p_max < 1 or w_max < 1:
        raise ValueError(f"all of n, m, p_max, w_max must be >= 1, got {(n, m, p_max, w_max)}")
    rng = SplitMix64(seed)
    jobs = []
    for i in range(1, n + 1):
        p = rng.randint(1, p_max)
        w = rng.randint(1, w_max)
        jobs.append(Job(i, p, w))
    return Instance(n=n, m=m, jobs=tuple(jobs))


def group_job_types(inst: Instance) -> list[JobType]:
    """Merge jobs with identical (p, w) into types, in WSPT order.

    Types are grouped from the job-level WSPT order in order of first
    appearance: non-increasing w/p, equal ratios by smallest member id.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for j in inst.wspt_ids:
        job = inst.job(j)
        groups.setdefault((job.p, job.w), []).append(j)
    return [JobType(p=p, w=w, d=len(ids), members=tuple(ids)) for (p, w), ids in groups.items()]


def singleton_types(inst: Instance) -> list[JobType]:
    """One type per job, in WSPT order: job-type merging switched off."""
    return [JobType(p=inst.job(j).p, w=inst.job(j).w, d=1, members=(j,)) for j in inst.wspt_ids]


def _check_partition(inst: Instance, sched: Schedule) -> None:
    if sched.m != inst.m:
        raise ValidationError(f"schedule has {sched.m} machines, the instance has {inst.m}")
    seen: set[int] = set()
    for machine in sched.machines:
        for j in machine:
            if j < 1 or j > inst.n:
                raise ValidationError(f"schedule references unknown job id {j}")
            if j in seen:
                raise ValidationError(f"job {j} appears more than once in the schedule")
            seen.add(j)
    if len(seen) != inst.n:
        missing = sorted(set(range(1, inst.n + 1)) - seen)
        raise ValidationError(f"schedule misses jobs {missing}")


def completion_times(inst: Instance, sched: Schedule) -> dict[int, int]:
    """Per-job completion times: prefix sums of p along each machine."""
    _check_partition(inst, sched)
    comp: dict[int, int] = {}
    for machine in sched.machines:
        t = 0
        for j in machine:
            t += inst.job(j).p
            comp[j] = t
    return comp


def evaluate_schedule(inst: Instance, sched: Schedule) -> int:
    """Total weighted completion time of a schedule."""
    comp = completion_times(inst, sched)
    return sum(inst.job(j).w * c for j, c in comp.items())


def sort_machine_wspt(inst: Instance, machine: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(machine, key=inst.wspt_ranks.__getitem__))


def write_schedule(inst: Instance, sched: Schedule) -> str:
    lines = [f"objective {evaluate_schedule(inst, sched)}"]
    for k, machine in enumerate(sched.machines, start=1):
        body = " ".join(str(j) for j in machine)
        lines.append(f"machine {k}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    """Parse schedule text; the objective line is informational only.

    Raises:
        ParseError: malformed text, naming the line.
        ModelSizeError: a job id too long to read (``_integer``).
    """
    machines: list[tuple[int, ...]] = []
    saw_objective = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("objective"):
            saw_objective = True
            continue
        _, colon, rest = line.partition(":")
        if not (line.startswith("machine") and colon):
            raise ParseError(f"line {lineno}: expected 'machine k: ...', got {_excerpt(line)}")
        ids = tuple(_integer(tok, lineno) for tok in rest.split())
        if None in ids:
            raise ParseError(f"line {lineno}: job ids must be integers")
        machines.append(ids)
    if not saw_objective or not machines:
        raise ParseError("schedule text needs an 'objective' line and machine lines")
    return Schedule(machines=tuple(machines))
