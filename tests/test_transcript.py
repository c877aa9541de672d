"""Command-line sessions replay byte for byte from a recorded transcript.

``transcript.json`` holds, for each step of each session below, the argv,
the exit code, stdout and stderr verbatim, and the sha256 of the session
file after the step.  Steps that open no session file (the README's
examples, a few larger cases and three rejected inputs) record no sha256.  A change that means to alter this output records the
transcript again, from the repository root, with

    PYTHONPATH=src python tests/test_transcript.py
"""

from __future__ import annotations

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

from womcode import cli

TRANSCRIPT = Path(__file__).resolve().with_name("transcript.json")

# (plan flags, cardinalities): the paper's ten 56-bit writes, two 56-bit
# writes at m = 3, wide symbols with unequal cardinalities, a code of one
# write, and four 1024-bit writes, whose windows 1303/1125/902/647 give
# digit strings as long as the 20 x 1024-bit benchmark sessions do.
CODES = [
    ("--m 2 --bits 56 --writes 10", [2**56] * 10),
    ("--m 3 --bits 56 --writes 2", [2**56] * 2),
    ("--m 9 --v 3,100,1000", [3, 100, 1000]),
    ("--v 5", [5]),
    ("--m 2 --bits 1024 --writes 4", [2**1024] * 4),
]

# Commands that open no session: the README's plan, bound, table and rates
# examples, larger plans, bounds and rate lists, and one rejected input
# (exit 3) for each of plan, bound and rates.
STATELESS = [
    "plan --v 7,2",
    "bound --v 26,26",
    "table",
    "rates --tmax 6",
    "plan --bits 2048 --writes 2",
    "bound --m 3 --bits 8 --writes 10",
    "rates --bits 56 --tmax 40",
    "plan --m 30000 --v 5",
    "bound --v 0,3",
    "rates --bits 8192",
]


def steps():
    """The argv of every step: per code and output format, plan --file,
    t x (write, read), erase-status and one write too many; then every
    stateless command in both formats.  No message is 0, so no first write
    is a free one and every write advances."""
    rng = random.Random(14)
    for i, (flags, v) in enumerate(CODES):
        for fmt in ("text", "machine"):
            file, tail = f"session{i}-{fmt}.wom", ["--format", fmt]
            yield ["plan", *flags.split(), "--file", file, *tail]
            for vg in v:
                yield ["write", "--file", file, str(rng.randrange(1, vg)), *tail]
                yield ["read", "--file", file, *tail]
            yield ["erase-status", "--file", file, *tail]
            yield ["write", "--file", file, "0", *tail]
    for command in STATELESS:
        for fmt in ("text", "machine"):
            yield [*command.split(), "--format", fmt]


def run(argv):
    """One step as the transcript records it; the session file, if any, is
    named by the argv and read from the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    step = {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if "--file" in argv:
        session = Path(argv[argv.index("--file") + 1]).read_bytes()
        step["sha256"] = sha256(session).hexdigest()
    return step


def test_cli_sessions_replay_the_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert [step["argv"] for step in recorded] == list(steps())
    for step in recorded:
        assert run(step["argv"]) == step


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        transcript = [run(argv) for argv in steps()]
        os.chdir(home)
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
