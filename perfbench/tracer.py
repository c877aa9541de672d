"""Spans around womcode's layer functions, recorded from outside the package.

A :class:`Tracer` swaps every binding that callers look up (the defining
module's attribute, each ``from ... import`` copy in other womcode modules,
and the package re-export) for a wrapper that records a span, then puts the
original objects back.  ``combinadic.binomial`` runs 10^5-10^6 times per
command, so it gets a counting wrapper with no span; its time stays in the
caller's self time.  Only calls made inside a span are counted, so work the
benchmark does between commands (checking a plan) is left out.

Spans are plain tuples kept in memory:
``(span_id, parent_id, op_id, name, start_ns, end_ns, raised)``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer functions that get a span, as (module, attribute path).
SPANNED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("device", "load_state"),
    ("device", "save_state"),
    ("device", "WitArray.apply_image"),
    ("device", "WitArray.read_image"),
    ("device", "symbols_to_bits"),
    ("device", "bits_to_symbols"),
    ("planner", "validate"),
    ("planner", "plan"),
    ("bounds", "z_bound"),
    ("bounds", "delta"),
    ("bounds", "check_half_optimal"),
    ("wom_codec", "encode_write"),
    ("wom_codec", "decode"),
    ("wom_codec", "erase_to"),
    ("wom_codec", "detect_generation"),
    ("message_codec", "message_to_payload"),
    ("message_codec", "payload_to_message"),
    ("message_codec", "last_write_encode"),
    ("message_codec", "last_write_decode"),
    ("combinadic", "unrank"),
    ("combinadic", "rank"),
)
COUNTED = ("combinadic", "binomial")
LAYERS = ("cli", "device", "planner", "bounds", "wom_codec", "message_codec", "combinadic")


def _resolve(module: str, path: str):
    """(owner object, attribute name) of `path` inside womcode.<module>."""
    owner = sys.modules[f"womcode.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(module: str, path: str):
    """Every (owner, attribute) through which callers reach the function.

    Module-level functions are found by identity in every loaded public
    womcode module, so a ``from .planner import validate`` copy is patched
    along with ``planner.validate`` itself.  Methods live only on their class.
    """
    owner, attr = _resolve(module, path)
    original = getattr(owner, attr)
    if "." in path:
        return original, [(owner, attr)]
    sites = []
    for name, mod in list(sys.modules.items()):
        if name != "womcode" and not name.startswith("womcode."):
            continue
        if name.rsplit(".", 1)[-1].startswith("_"):
            continue  # private helper modules (kernel backends) are not call sites
        for key, value in vars(mod).items():
            if value is original:
                sites.append((mod, key))
    return original, sites


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the time its children cover.

    Children of one parent run one after another in this single-threaded
    program, so the time they cover is the sum of their durations.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _op, _name, start, end, _raised in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return {sid: end - start - child_ns[sid] for sid, _p, _o, _n, start, end, _r in spans}


class Tracer:
    """Records spans for one process; install() patches, remove() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.binomial_calls = 0
        self.binomial_repeats = 0
        self._binomial_seen: set[tuple[int, int]] = set()
        self.validate_calls = 0
        self.validate_repeats = 0
        self._validate_seen: set = set()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            return
        for module, path in SPANNED:
            original, sites = _bindings(module, path)
            wrapper = self._span_wrapper(f"{module}.{path}", original)
            for owner, attr in sites:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        original, sites = _bindings(*COUNTED)
        wrapper = self._count_wrapper(original)
        for owner, attr in sites:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_validate = name == "planner.validate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_validate:
                self._note_validate(args[0] if args else kwargs["params"])
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, start, end, raised))

        return traced

    def _note_validate(self, params) -> None:
        key = (params.m, params.v, params.h)
        self.validate_calls += 1
        if key in self._validate_seen:
            self.validate_repeats += 1
        else:
            self._validate_seen.add(key)

    def _count_wrapper(self, fn):
        seen, stack = self._binomial_seen, self._stack

        @functools.wraps(fn)
        def counted(n, k):
            if not stack:  # outside any traced op: the benchmark's own checks
                return fn(n, k)
            self.binomial_calls += 1
            key = (n, k)
            if key in seen:
                self.binomial_repeats += 1
            else:
                seen.add(key)
            return fn(n, k)

        return counted


def layer_summary(spans, traced_ops: int) -> dict[str, float]:
    """Per-op calls and self milliseconds of each spanned function, plus
    exceptions that left each layer (counted where they cross a module
    boundary, so one failure is not counted once per frame)."""
    selfs = self_times(spans)
    names = {sid: name for sid, _p, _o, name, *_ in spans}
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    errors: Counter = Counter()
    for sid, parent, _op, name, _s, _e, raised in spans:
        calls[name] += 1
        self_ns[name] += selfs[sid]
        layer = name.split(".", 1)[0]
        if raised and (parent is None or names[parent].split(".", 1)[0] != layer):
            errors[layer] += 1
    per_op = max(traced_ops, 1)
    out: dict[str, float] = {}
    for module, path in SPANNED:
        name = f"{module}.{path}"
        out[f"{name}.calls"] = calls[name] / per_op
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / per_op
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out


def unreconciled_ops(spans) -> int:
    """Ops whose spans do not form one tree under a single root whose
    duration equals the sum of every span's self time (0 when consistent;
    times are integer nanoseconds, so the sums agree exactly)."""
    selfs = self_times(spans)
    total: Counter = Counter()
    roots: defaultdict = defaultdict(list)
    for sid, parent, op, _name, start, end, _raised in spans:
        total[op] += selfs[sid]
        if parent is None:
            roots[op].append(end - start)
    return sum(1 for op in total if roots[op] != [total[op]])
