"""Seeded workloads: the CLI commands each one sends and the check of every reply.

Each workload is a closed loop with one client: a command is sent only after
the previous one returned.  Checks use the benchmark's own record of what was
written and the session file's text, never womcode's device layer; the one
exception is that plan outputs are held to ``planner.validate``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Iterator

from womcode.device import WitArray, save_state
from womcode.planner import CodeParams, plan, validate

# Bound from the import above, so a check calls the original validate, never a
# tracer wrapper.  The binomials it calls still go through a patched
# planner.binomial, but the tracer counts binomials only inside a traced op.
_validate = validate

EXIT_OK, EXIT_EXHAUSTED = 0, 4

# Windows of ten 56-bit writes at m = 2, as published.
PAPER_H_10X56 = (139, 130, 120, 110, 99, 88, 76, 64, 51, 36)
PAPER_N = {(2, 56, 10): 278, (3, 56, 2): 93}

SWEEP_BITS = (32, 56, 128, 256, 384)
SWEEP_FIXED = ((2, 56, 10), (3, 56, 2), (2, 256, 10))  # (m, bits, t)
SWEEP_BLOCKS_SEED = 20100101


@dataclass
class Step:
    group: int  # a traced run traces odd groups: a session, or a plan-sweep block
    kind: str  # plan | write | read | write-full | erase-status | bound
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> problem


@dataclass
class Tally:
    """Totals the checks collect while replies come in."""

    code_bits: float = 0.0  # message bits of every code planned or run
    code_wits: int = 0  # wits of those codes
    message_bits: float = 0.0  # bits of messages written
    wits_programmed: int = 0  # wits that went 0 -> 1 in session files
    save_bytes: int = 0  # session file bytes after each command that saved
    saves: int = 0  # commands that saved a session file


def _record(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _check_plan(m: int, v: list[int], stdout: str) -> str | None:
    rec = _record(stdout)
    h, n = tuple(rec["h"]), rec["n"]
    if rec["m"] != m or [int(x) for x in rec["v"]] != v:
        return f"plan echoed m={rec['m']} v={rec['v']}, asked m={m}"
    problems = _validate(CodeParams(m=m, v=tuple(v), h=h))
    if problems:
        return f"plan h={h} fails validate: {problems}"
    if n != m * h[0]:
        return f"plan n={n} is not m*h_1={m * h[0]}"
    bits = math.log2(v[0]) if len(set(v)) == 1 else None
    key = (m, bits, len(v))
    if key in PAPER_N and n != PAPER_N[key]:
        return f"plan {key} gave n={n}, paper has {PAPER_N[key]}"
    if key == (2, 56, 10) and h != PAPER_H_10X56:
        return f"plan of ten 56-bit writes gave h={h}"
    return None


def _bound_step() -> Step:
    def check(rc: int, stdout: str) -> str | None:
        if rc != EXIT_OK:
            return f"bound exited {rc}"
        z = _record(stdout)["z"]
        return None if z == 7 else f"bound --v 26,26 gave z={z}, want 7"

    return Step(0, "bound", ["bound", "--v", "26,26", "--format", "machine"], check)


def _wits(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wits "):
                return line[5:].strip()
    raise ValueError(f"{path} has no wits line")


class _Session:
    """The expected state of one session file, advanced by each reply."""

    def __init__(self, tally: Tally, path: str, m: int, bits: int, t: int):
        self.tally, self.path = tally, path
        self.m, self.bits, self.t = m, bits, t
        self.wits: str | None = None
        self.written = (0, None)  # (generation, message) last written

    def count_code(self) -> None:
        self.tally.code_bits += self.bits * self.t
        self.tally.code_wits += len(self.wits)

    def file_step(self, changed: bool) -> str | None:
        """Wits may only go 0 -> 1, and only commands that write may move them."""
        if not os.path.exists(self.path):
            return f"{self.path} missing"
        wits = _wits(self.path)
        if self.wits is not None:
            if len(wits) != len(self.wits):
                return f"wit string changed length {len(self.wits)} -> {len(wits)}"
            old, new = int(self.wits, 2), int(wits, 2)
            if old & ~new:
                return "a programmed wit went back to 0"
            if new != old and not changed:
                return "a command without a write changed the wits"
            self.tally.wits_programmed += bin(new & ~old).count("1")
        if changed:
            self.tally.save_bytes += os.path.getsize(self.path)
            self.tally.saves += 1
        self.wits = wits
        return None

    def plan_step(self, s: int) -> Step:
        v = [2**self.bits] * self.t

        def check(rc: int, stdout: str) -> str | None:
            if rc != EXIT_OK:
                return f"plan --file exited {rc}"
            problem = _check_plan(self.m, v, stdout) or self.file_step(True)
            if problem is None and set(self.wits) != {"0"}:
                problem = "a fresh session file has programmed wits"
            if problem is None:
                self.count_code()
            return problem

        argv = ["plan", "--m", str(self.m), "--bits", str(self.bits),
                "--writes", str(self.t), "--file", self.path, "--format", "machine"]
        return Step(s, "plan", argv, check)

    def write_step(self, s: int, g: int, message: int) -> Step:
        def check(rc: int, stdout: str) -> str | None:
            if rc != EXIT_OK:
                return f"write {g} exited {rc}"
            rec = _record(stdout)
            got = (rec["generation"], int(rec["message"]))
            if got != (g, message):
                return f"write {g} of {message} reported {got}"
            self.written = got
            self.tally.message_bits += self.bits
            return self.file_step(True)

        argv = ["write", "--file", self.path, str(message), "--format", "machine"]
        return Step(s, "write", argv, check)

    def read_step(self, s: int) -> Step:
        def check(rc: int, stdout: str) -> str | None:
            if rc != EXIT_OK:
                return f"read exited {rc}"
            rec = _record(stdout)
            got = (rec["generation"], int(rec["message"]))
            if got != self.written:
                return f"read gave {got}, last written {self.written}"
            return self.file_step(False)

        return Step(s, "read", ["read", "--file", self.path, "--format", "machine"], check)

    def full_step(self, s: int) -> Step:
        def check(rc: int, stdout: str) -> str | None:
            if rc != EXIT_EXHAUSTED:
                return f"write {self.t + 1} of {self.t} exited {rc}, want {EXIT_EXHAUSTED}"
            return self.file_step(False)

        return Step(s, "write-full", ["write", "--file", self.path, "1", "--format", "machine"], check)

    def status_step(self, s: int) -> Step:
        def check(rc: int, stdout: str) -> str | None:
            if rc != EXIT_OK:
                return f"erase-status exited {rc}"
            rec = _record(stdout)
            problem = self.file_step(False)
            if problem:
                return problem
            want = {"generation": self.t, "writes_remaining": 0,
                    "wits_programmed": self.wits.count("1"), "n": len(self.wits)}
            got = {key: rec[key] for key in want}
            return None if got == want else f"erase-status gave {got}, want {want}"

        return Step(s, "erase-status", ["erase-status", "--file", self.path, "--format", "machine"], check)


class SessionWorkload:
    """Sessions of plan, t x (write, reads), one write too many, erase-status."""

    def __init__(self, seed: int, workdir: str, codes, reads_per_write: int, from_template: bool):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.codes = codes  # (m, bits, t) of the codes the sessions use
        self.reads_per_write = reads_per_write
        self.from_template = from_template
        self.templates: dict[tuple, str] = {}
        self.tally = Tally()

    def setup(self) -> None:
        """Write a fresh session file per code; sessions start from a copy."""
        if not self.from_template:
            return
        for m, bits, t in self.codes:
            params = plan(m, [2**bits] * t)
            path = os.path.join(self.workdir, f"template-{m}-{bits}-{t}.wom")
            save_state(path, params, WitArray(params.n))
            self.templates[(m, bits, t)] = path

    def _codes(self) -> Iterator[tuple[int, int, int]]:
        # Every code once per block, in seeded order, so the mix of codes
        # (and with it the mix of commands) is the same on every seed.
        codes = list(self.codes)
        while True:
            self.rng.shuffle(codes)
            yield from codes

    def steps(self) -> Iterator[Step]:
        yield _bound_step()
        for s, (m, bits, t) in enumerate(self._codes(), start=1):
            path = os.path.join(self.workdir, f"session-{s}.wom")
            session = _Session(self.tally, path, m, bits, t)
            if self.from_template:
                shutil.copyfile(self.templates[(m, bits, t)], path)
                session.wits = _wits(path)
                session.count_code()
            else:
                yield session.plan_step(s)
            for g in range(1, t + 1):
                yield session.write_step(s, g, self.rng.randrange(2**bits))
                for _ in range(self.reads_per_write):
                    yield session.read_step(s)
            yield session.full_step(s)
            yield session.status_step(s)
            if os.path.exists(path):
                os.remove(path)


class PlanSweep:
    """``plan --format machine`` over mixed-cardinality codes.

    Codes come in blocks of 30 that hold every (m, t) with m in {2, 3} and
    t in [2, 16] once; each block deals the same number of writes of every
    size.  A plan's cost spans two orders of magnitude and depends on the
    order of its write sizes, so the blocks themselves are drawn from a fixed
    generator and ``--seed`` only orders the codes inside each block: every
    run plans the same codes, none of them twice, and the seed barely moves
    the median and tail.  The paper's fixed codes open the run.  A traced
    run traces every other whole block, so its traced and untraced sides plan
    the same mix; the fixed codes stay untraced.
    """

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.tally = Tally()

    def setup(self) -> None:
        pass

    def _codes(self) -> Iterator[tuple[int, int, list[int]]]:
        """(group, m, write sizes): the fixed codes are group 0, block b is group b."""
        for m, bits, t in SWEEP_FIXED:
            yield 0, m, [bits] * t
        cells = [(m, t) for m in (2, 3) for t in range(2, 17)]
        writes = sum(t for _m, t in cells)
        sizes = [b for b in SWEEP_BITS for _ in range(writes // len(SWEEP_BITS))]
        blocks = random.Random(SWEEP_BLOCKS_SEED)
        for b in itertools.count(1):
            blocks.shuffle(sizes)
            dealt = iter(sizes)
            block = [(b, m, [next(dealt) for _ in range(t)]) for m, t in cells]
            self.rng.shuffle(block)
            yield from block

    def steps(self) -> Iterator[Step]:
        yield _bound_step()
        for group, m, bits in self._codes():
            v = [2**b for b in bits]

            def check(rc: int, stdout: str, m=m, v=v, bits=bits) -> str | None:
                if rc != EXIT_OK:
                    return f"plan exited {rc}"
                problem = _check_plan(m, v, stdout)
                if problem is None:
                    self.tally.code_bits += sum(bits)
                    self.tally.code_wits += _record(stdout)["n"]
                return problem

            argv = ["plan", "--m", str(m), "--v", ",".join(hex(x) for x in v),
                    "--format", "machine"]
            yield Step(group, "plan", argv, check)


WORKLOADS = {
    "session-paper": lambda seed, workdir: SessionWorkload(
        seed, workdir, codes=[(2, 56, 10), (3, 56, 2)], reads_per_write=1, from_template=False
    ),
    "session-large": lambda seed, workdir: SessionWorkload(
        seed, workdir, codes=[(2, 1024, 20)], reads_per_write=3, from_template=True
    ),
    "plan-sweep": PlanSweep,
}
