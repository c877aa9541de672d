"""Mutation screen of src/womcode: the one-point changes that no test notices.

    python tests/mutants.py

It takes no options and needs pytest.  A mutant is one change to one module
of src/womcode, made on its syntax tree by one of five operators:

* ``raise-pass``: a ``raise`` statement becomes ``pass``;
* ``negate``: the test of an ``if``, a ``while`` or a conditional
  expression is negated;
* ``boundary``: one ``<`` becomes ``<=`` or back, one ``>`` ``>=`` or back;
* ``drop-return``: a ``return`` that is not its function's last statement
  becomes ``pass``;
* ``delete``: an ``if``, ``for``, assignment or expression statement (not
  a docstring) becomes ``pass``.

Each mutant is written into a copy of the checkout in a temporary
directory, so the checkout is only read.  Two workers run pytest on their
copies: first the fast oracle set ``SCREEN``, then all of ``tests/`` for a
mutant that passed it.  A mutant that fails a test, or runs past its
timeout, is killed.  On a 2-core machine the run takes about 25 minutes.

A survivor is dead code (delete it), behaviour that no test pins (add a
test at the public surface or the CLI), or an equivalent mutant, which no
input can tell from the original.  The equivalent ones are listed in
``EQUIVALENT`` with the reason.  The script prints each module's counts,
then every survivor that ``EQUIVALENT`` does not list and every entry of
``EQUIVALENT`` that no survivor matched, and exits 1 if it printed either.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby, islice
from pathlib import Path
from queue import Queue
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "womcode"
# What a copy needs for tests/ to run: the tests read README.md and
# perfbench/tracer.py, and pyproject.toml puts the copy's src/ on the path.
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
SCREEN = (
    "tests/test_spec.py",
    "tests/test_transcript.py",
    "tests/test_acceptance.py",
    "tests/test_surface.py",
)
WORKERS = 2
SCREEN_TIMEOUT = 30  # seconds; the screen takes about 2
FULL_TIMEOUT = 300  # seconds; tests/ takes about 25
MEMORY_LIMIT = 2 << 30  # bytes of address space, for this process and its children

OPERATORS = ("raise-pass", "negate", "boundary", "drop-return", "delete")
_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}

# Survivors that change nothing an input can observe, keyed by (module,
# operator, stripped source line).
_BIT_PLANES = (
    "the bit-plane path for m <= 8 and the per-symbol path give the same wits; "
    "the planes are the measured fast path of every session load (ROADMAP audit)"
)
_CLOSED_FORM = (
    "(1 + q)^h less the blocks below kmin is the block sum when kmax == h; "
    "the closed form is the fast path of every last window"
)
_COVERS = (
    "window_covers' downward walk gives the same answer at kmax == h; "
    "the branch only skips to the closed form"
)
_BYTE_SYMBOLS = (
    "the per-symbol checks give the same symbols, classes and error texts as bytes() and "
    "translate for m <= 8; the bytes path is the measured fast path of every session load "
    "(ROADMAP audit)"
)
_LOG_SCREEN = (
    "the log screen only returns True early where the top block covers need; "
    "without it, or when it declines, the exact walk gives the same answer"
)
EQUIVALENT = {
    ("device", "boundary", "if m <= BYTE_M:"): _BIT_PLANES,
    ("device", "delete", "if m <= BYTE_M:"): _BIT_PLANES,
    ("device", "drop-return", 'return wits.decode("ascii")'): _BIT_PLANES,
    ("device", "drop-return", 'return word.to_bytes(len(raw) // m, "big")'): _BIT_PLANES,
    ("message_codec", "delete", "if window.kmax == h:"): _CLOSED_FORM,
    (
        "message_codec",
        "drop-return",
        "return (1 + q) ** h - sum(binomial(h, k) * q**k for k in range(window.kmin))",
    ): _CLOSED_FORM,
    ("message_codec", "delete", "if k == h:"): _COVERS,
    ("message_codec", "negate", "if k == h:"): _COVERS,
    ("message_codec", "drop-return", "return window_capacity(window) >= need"): _COVERS,
    ("message_codec", "delete", "if _top_block_covers(h, q, k, need):"): _LOG_SCREEN,
    ("message_codec", "drop-return", "return True"): _LOG_SCREEN,
    ("message_codec", "boundary", "if need < 1 or h >= 2**53:"): (
        "need = 1 and h = 2^53 are inside what the screen handles, so declining "
        "them leaves the answer to the exact walk"
    ),
    ("message_codec", "boundary", "return a - b - c + kq - ln_need > SCREEN_GUARD * (a + b + c + kq + ln_need)"): (
        "a margin equal to the guard is still far beyond the rounding; only all-zero "
        "terms meet it, where C(h, k) * q^k = 1 = need"
    ),
    ("wom_codec", "boundary", "if params.m <= BYTE_M and isinstance(symbols, (bytes, list, tuple)):"): (
        _BYTE_SYMBOLS
    ),
    ("wom_codec", "delete", "if params.m <= BYTE_M and isinstance(symbols, (bytes, list, tuple)):"): (
        _BYTE_SYMBOLS
    ),
    ("message_codec", "boundary", "while total < need and k > window.kmin:"): (
        "adding one more block once total == need leaves total >= need true"
    ),
    ("cli", "delete", "Output = tuple[list[str], dict]"): (
        "an annotation alias; with postponed annotations nothing evaluates it"
    ),
    ("wom_codec", "delete", "zero_count: int = field(init=False, repr=False, compare=False)"): (
        "declares the attribute __post_init__ sets; without it zero_count is still "
        "set and still outside ==, hash and repr, and only dataclasses.fields() differs"
    ),
    ("wom_codec", "delete", "classes: bytes = field(init=False, repr=False, compare=False)"): (
        "declares the attribute __post_init__ sets, as for zero_count"
    ),
    ("cli", "delete", "if reading.message != args.message:"): (
        "cmd_write's self-check is safety code: encode_write and decode agree on "
        "every input, so no test can fail it"
    ),
    ("cli", "raise-pass", "raise CorruptStateError("): (
        "the self-check's raise, as above"
    ),
}


class Site(NamedTuple):
    """One mutant: the module, its operator and the source line it changes."""

    module: str
    operator: str
    lineno: int
    line: str


def _statement_operator(owner: ast.AST, field: str, body: list, i: int) -> str | None:
    """The operator that turns statement `body[i]` into ``pass``, if any."""
    stmt = body[i]
    if isinstance(stmt, ast.Raise):
        return "raise-pass"
    if isinstance(stmt, ast.Return):
        last = isinstance(owner, ast.FunctionDef) and field == "body" and i == len(body) - 1
        return None if last else "drop-return"
    if isinstance(stmt, (ast.If, ast.For, ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return "delete"
    if isinstance(stmt, ast.Expr) and not (
        isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
    ):
        return "delete"
    return None


def _mutate(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Change `tree` in place once per mutation, in a fixed order, and yield
    (operator, line number) while the change stands; undo it before the
    next.  ``ast.walk`` has queued a node's children before it yields the
    node, so the changes never reach the walk."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            test = node.test
            node.test = ast.UnaryOp(ast.Not(), test)
            yield "negate", test.lineno
            node.test = test
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    node.ops[i] = _SWAPS[type(op)]()
                    yield "boundary", node.lineno
                    node.ops[i] = op
        for field, body in ast.iter_fields(node):
            if not (isinstance(body, list) and body and isinstance(body[0], ast.stmt)):
                continue
            for i, stmt in enumerate(body):
                operator = _statement_operator(node, field, body, i)
                if operator:
                    body[i] = ast.Pass()
                    yield operator, stmt.lineno
                    body[i] = stmt


def sites(module: str, source: str) -> list[Site]:
    """Every mutant of `module`'s `source`, in :func:`mutant_source` order."""
    lines = source.splitlines()
    return [
        Site(module, operator, lineno, lines[lineno - 1].strip())
        for operator, lineno in _mutate(ast.parse(source))
    ]


def mutant_source(source: str, index: int) -> str:
    """Mutant number `index` of `source`."""
    tree = ast.parse(source)
    next(islice(_mutate(tree), index, None))
    return ast.unparse(tree)


def _passes(copy: Path, targets: tuple[str, ...], timeout: float) -> bool:
    """Whether pytest passes `targets` in `copy` within `timeout` seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a stale .pyc could hide a mutant
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # so a timeout can stop the tests' own children
    )
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _survives(site: Site, index: int, copies: Queue) -> bool:
    """Run one mutant in a free copy, and put the original module back."""
    copy = copies.get()
    module = copy / "src" / "womcode" / f"{site.module}.py"
    original = module.read_text(encoding="utf-8")
    try:
        module.write_text(mutant_source(original, index), encoding="utf-8")
        return _passes(copy, SCREEN, SCREEN_TIMEOUT) and _passes(copy, ("tests",), FULL_TIMEOUT)
    finally:
        module.write_text(original, encoding="utf-8")
        copies.put(copy)


def main() -> int:
    started = time.monotonic()
    try:
        import resource

        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    except (ImportError, ValueError):
        pass  # no limit where the platform has none to set
    with tempfile.TemporaryDirectory(prefix="womcode-mutants-") as tmp:
        copies: Queue = Queue()
        for worker in range(WORKERS):
            copy = Path(tmp) / str(worker)
            for name in COPIED:
                source, target = ROOT / name, copy / name
                if source.is_dir():
                    shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
                else:
                    shutil.copy2(source, target)
            copies.put(copy)
        # Mutants are made from a copy, so the checkout may change meanwhile.
        work = [
            (site, index)
            for path in sorted((copy / "src" / "womcode").glob("*.py"))
            for index, site in enumerate(sites(path.stem, path.read_text(encoding="utf-8")))
        ]
        print(f"{len(work)} mutants of src/womcode, {WORKERS} workers", flush=True)
        if not _passes(copy, ("tests",), FULL_TIMEOUT):
            print("tests/ fails on the unmutated package; no mutant can be judged")
            return 2
        print(f"{'module':<14} {'mutants':>7} {'killed':>6} {'equivalent':>10} {'unlisted':>8}")
        unlisted, matched = [], set()
        with ThreadPoolExecutor(WORKERS) as pool:
            # map yields in order, so each module's row prints once it is done.
            results = zip(work, pool.map(lambda job: _survives(*job, copies), work))
            for module, rows in groupby(results, key=lambda row: row[0][0].module):
                counts = [0, 0, 0, 0]
                for (site, _), alive in rows:
                    key = (site.module, site.operator, site.line)
                    counts[0] += 1
                    if not alive:
                        counts[1] += 1
                    elif key in EQUIVALENT:
                        counts[2] += 1
                        matched.add(key)
                    else:
                        counts[3] += 1
                        unlisted.append(site)
                print(f"{module:<14} {counts[0]:>7} {counts[1]:>6} {counts[2]:>10} {counts[3]:>8}", flush=True)
    for site in unlisted:
        print(f"SURVIVED {site.module}.py:{site.lineno} {site.operator}: {site.line}")
    stale = [key for key in EQUIVALENT if key not in matched]
    for module, operator, line in stale:
        print(f"STALE {module}.py {operator}: {line} (listed as equivalent, no survivor)")
    print(f"{time.monotonic() - started:.0f} s")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
