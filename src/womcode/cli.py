"""Command-line front end: plan codes, run write/read sessions against a
persisted device file, compute bounds, and print rate-comparison tables.

A ``cmd_*`` handler returns ``(lines, record)``, its text output and its
``--format machine`` JSON record, and prints nothing.  :func:`main` alone
prints, and maps errors to distinct exit codes: 0 success, 2 usage error
(argparse), 3 domain error or failed file access, 4 memory exhausted (no
writes left), 5 corrupt session state.

Each call builds its parser afresh from the ``_COMMANDS`` table, and only
the subcommand that the first argument names: ``womcode write ...`` never
builds the other six.  Any other first argument (none, ``-h``, an option
or an unknown command) gets the full parser, so top-level help and usage
errors list every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import bounds
from .device import WitArray, load_state, save_state
from .errors import (
    CapacityError,
    CorruptStateError,
    DomainError,
    WomCodeError,
    WriteOnceViolation,
)
from .message_codec import window_capacity
from .planner import CodeParams, check_cardinality_bits, plan, write_window
from .wom_codec import MemoryImage, decode, detect_generation, encode_write, next_generation

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_EXHAUSTED = 4
EXIT_CORRUPT = 5

# Wit count quoted elsewhere for two 56-bit writes with 3-wit symbols; the
# planner's exact evaluation can beat it, so `plan` flags the difference.
_QUOTED_M3_56BIT_TWICE = 96


def _parse_count(text: str) -> int:
    """Accept a decimal or 0x-hex nonnegative integer of any size."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _parse_count_list(text: str) -> list[int]:
    return [_parse_count(part) for part in text.split(",")]


def _power_of_two(bits: int) -> int:
    """2**bits, refused before it is built if --bits is negative or if it
    would reach the cardinality limit; the number has bits + 1 bits."""
    if bits < 0:
        raise DomainError(f"--bits must be nonnegative, got {bits}")
    check_cardinality_bits(bits + 1)
    return 2**bits


def _cardinalities(args) -> list[int]:
    """Resolve --v / --bits+--writes into the per-write cardinality list."""
    if args.v is not None:
        if args.bits is not None:
            raise DomainError("give either --v or --bits, not both")
        if args.writes is not None and args.writes != len(args.v):
            raise DomainError(
                f"--writes {args.writes} disagrees with {len(args.v)} values in --v"
            )
        return list(args.v)
    if args.bits is None:
        raise DomainError("need --v or --bits to fix the write cardinalities")
    if args.writes is None:
        raise DomainError("--bits needs --writes to know how many writes to plan")
    return [_power_of_two(args.bits)] * args.writes


Output = tuple[list[str], dict]


def cmd_plan(args) -> Output:
    v = _cardinalities(args)
    params = plan(args.m, v)
    report = bounds.check_half_optimal(params)
    rows = [
        (g, params.h[g - 1], window_capacity(write_window(params.m, params.h, g)))
        for g in range(1, params.t + 1)
    ]
    lines = [
        f"m: {params.m}",
        f"writes: {params.t}",
        "v: " + ",".join(str(x) for x in params.v),
        "h: " + " ".join(str(x) for x in params.h),
        f"n: {params.n}",
        f"rate: {report.rate:.4f}",
    ]
    for g, window, cap in rows:
        lines.append(f"write {g}: window {window}, capacity {cap}")
    lines.append(f"z bound: {report.z}")
    lines.append(
        "half-optimal (h1 <= z): " + ("yes" if report.half_optimal_ok else "no")
    )
    notes = []
    if (
        params.m == 3
        and params.t == 2
        and all(x == 2**56 for x in params.v)
        and params.n != _QUOTED_M3_56BIT_TWICE
    ):
        notes.append(
            f"note: n={params.n} differs from the {_QUOTED_M3_56BIT_TWICE} wits "
            "quoted for this configuration; the plan formulas give the smaller value"
        )
    lines.extend(notes)
    record = {
        "m": params.m,
        "writes": params.t,
        "v": [str(x) for x in params.v],
        "h": list(params.h),
        "n": params.n,
        "rate": report.rate,
        "capacities": [
            {"write": g, "window": w, "capacity": str(c)}
            for g, w, c in rows
        ],
        "z": report.z,
        "half_optimal_ok": report.half_optimal_ok,
        "notes": notes,
    }
    if args.file:
        if os.path.exists(args.file):
            raise DomainError(f"refusing to overwrite existing session file {args.file}")
        save_state(args.file, params, WitArray(params.n))
        lines.append(f"session created: {args.file}")
    return lines, record


def _load_session(path: str) -> tuple[CodeParams, WitArray, MemoryImage]:
    if not os.path.exists(path):
        raise DomainError(f"no session file at {path}")
    params, arr = load_state(path)
    return params, arr, arr.read_image(params)


def cmd_write(args) -> Output:
    params, arr, image = _load_session(args.file)
    new_image = encode_write(image, args.message)
    reading = decode(new_image)
    if reading.message != args.message:
        raise CorruptStateError(
            f"self-check failed: wrote {args.message}, decoded {reading.message}"
        )
    arr.apply_image(new_image)
    save_state(args.file, params, arr)
    lines = [
        f"generation: {reading.generation}",
        f"message: {reading.message}",
        f"zero symbols: {new_image.zero_count} of {params.h[0]}",
    ]
    record = {
        "generation": reading.generation,
        "message": str(reading.message),
        "zero_symbols": new_image.zero_count,
    }
    return lines, record


def cmd_read(args) -> Output:
    _, _, image = _load_session(args.file)
    reading = decode(image)
    return (
        [f"generation: {reading.generation}", f"message: {reading.message}"],
        {"generation": reading.generation, "message": str(reading.message)},
    )


def cmd_erase_status(args) -> Output:
    params, arr, image = _load_session(args.file)
    generation = detect_generation(image)
    remaining = params.t + 1 - next_generation(image)
    programmed = arr.wits.count("1")
    lines = [
        f"generation: {generation}",
        f"zero symbols: {image.zero_count} of {params.h[0]}",
        f"wits programmed: {programmed} of {params.n}",
        f"writes remaining: {remaining}",
        "windows: " + " ".join(str(x) for x in params.h),
    ]
    record = {
        "generation": generation,
        "zero_symbols": image.zero_count,
        "symbols": params.h[0],
        "wits_programmed": programmed,
        "n": params.n,
        "writes_remaining": remaining,
        "windows": list(params.h),
    }
    return lines, record


def cmd_bound(args) -> Output:
    v = _cardinalities(args)
    params = plan(args.m, v)
    report = bounds.check_half_optimal(params)
    lines = [
        f"z bound: {report.z} wits",
        f"planned h1: {report.h1} (n = {report.n} at m = {args.m})",
        f"planned rate: {report.rate:.4f}",
        "half-optimal (h1 <= z): " + ("yes" if report.half_optimal_ok else "no"),
    ]
    record = {
        "z": report.z,
        "h1": report.h1,
        "n": report.n,
        "m": args.m,
        "rate": report.rate,
        "half_optimal_ok": report.half_optimal_ok,
    }
    return lines, record


def cmd_table(args) -> Output:
    rows = []
    for t, v, n, known_rate in bounds.KNOWN_CODES:
        params = plan(2, [2**56] * t)
        rows.append(
            {
                "t": t,
                "known": {"v": v, "n": n, "rate": known_rate},
                "position_modulation": {
                    "log2_v": 56,
                    "n": params.n,
                    "rate": bounds.rate(params),
                },
            }
        )
    lines = [
        f"{'t':>2}  {'known code':>12}  {'rate':>5}  {'this code':>15}  {'rate':>5}"
    ]
    for row in rows:
        known = row["known"]
        pm = row["position_modulation"]
        known_code = "<{}>^{}/{}".format(known["v"], row["t"], known["n"])
        pm_code = "<2^56>^{}/{}".format(row["t"], pm["n"])
        lines.append(
            f"{row['t']:>2}  {known_code:>12}  {known['rate']:>5.2f}  "
            f"{pm_code:>15}  {pm['rate']:>5.2f}"
        )
    return lines, {"rows": rows}


def cmd_rates(args) -> Output:
    if args.tmax < 2:
        raise DomainError(f"--tmax must be >= 2, got {args.tmax}")
    v = _power_of_two(args.bits)
    columns = ("position_modulation", "fiat_shamir", "rivest_shamir_linear", "cohen")
    lines = [",".join(("t", *columns))]
    rows = []
    for t in range(2, args.tmax + 1):
        row = {"t": t, "cohen": None}
        for name, rate in bounds.comparator_rates(t, v=v):
            row[name.replace("-", "_")] = rate
        rows.append(row)
        lines.append(
            f"{t}," + ",".join("" if row[c] is None else f"{row[c]:.4f}" for c in columns)
        )
    return lines, {"v_bits": args.bits, "rows": rows}


_CODE_FLAGS = (
    ("--m", dict(type=int, default=2, help="wits per symbol (default 2)")),
    ("--writes", dict(type=int, help="number of writes t")),
    ("--bits", dict(type=int, help="store 2**bits messages on every write")),
    ("--v", dict(type=_parse_count_list,
                 help="comma-separated per-write cardinalities (decimal or 0x hex)")),
)
_SESSION_FILE = ("--file", dict(required=True, help="session file"))
_FORMAT = ("--format", dict(choices=("text", "machine"), default="text",
                            help="text for humans, machine for one JSON record"))
_COMMANDS = (
    ("plan", "compute code parameters, optionally start a session", cmd_plan, (
        *_CODE_FLAGS,
        ("--file", dict(help="create a fresh session file (refuses to overwrite)")),
    )),
    ("write", "write the next generation into a session file", cmd_write, (
        _SESSION_FILE,
        ("message", dict(type=_parse_count, help="message value (decimal or 0x hex)")),
    )),
    ("read", "decode a session file (no side effects)", cmd_read, (_SESSION_FILE,)),
    ("erase-status", "report zero symbols and writes left", cmd_erase_status, (_SESSION_FILE,)),
    ("bound", "wit lower bound versus the planned code", cmd_bound, _CODE_FLAGS),
    ("table", "compare against the best known fixed codes", cmd_table, ()),
    ("rates", "per-t rates of this scheme and three classics", cmd_rates, (
        ("--bits", dict(type=int, default=32, help="log2 of v (default 32)")),
        ("--tmax", dict(type=int, default=50, help="largest t (default 50)")),
    )),
)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for `argv`: only the subcommand that ``argv[0]`` names,
    or every subcommand when ``argv[0]`` names none of them."""
    rows = [row for row in _COMMANDS if argv and row[0] == argv[0]] or _COMMANDS
    parser = argparse.ArgumentParser(
        prog="womcode",
        description="Plan and exercise multiple-write codes over write-once bits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in rows:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*flags, _FORMAT):
            p.add_argument(flag, **kwargs)
        # main reports leftover arguments with this subcommand's usage.
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args, extra = build_parser(argv).parse_known_args(argv)
    if extra:
        args.parser.error("unrecognized arguments: " + " ".join(extra))
    try:
        lines, record = args.func(args)
        if args.format == "machine":
            print(json.dumps(record, sort_keys=True))
        else:
            print("\n".join(lines))
        return EXIT_OK
    except (CorruptStateError, WriteOnceViolation) as exc:
        print(f"error: corrupt session state: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except CapacityError as exc:
        print(f"error: memory exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (WomCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
