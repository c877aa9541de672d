"""Tests of the benchmark's tracer: self-time arithmetic and patch hygiene.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import womcode  # noqa: E402
from womcode import bounds, cli, combinadic, device, message_codec, planner, wom_codec  # noqa: E402

import tracer as tracing  # noqa: E402

# (sid, parent, op, name, start_ns, end_ns, raised)
NESTED_AND_SIBLINGS = [
    (1, None, 7, "cli.main", 0, 100, False),
    (2, 1, 7, "device.load_state", 10, 40, False),
    (3, 2, 7, "planner.validate", 15, 25, False),
    (4, 1, 7, "wom_codec.decode", 50, 90, False),
    (5, 4, 7, "combinadic.rank", 60, 65, False),
    (6, 4, 7, "combinadic.rank", 70, 80, True),
]


def test_self_time_nested_and_sibling_spans():
    assert tracing.self_times(NESTED_AND_SIBLINGS) == {1: 30, 2: 20, 3: 10, 4: 25, 5: 5, 6: 10}
    assert tracing.unreconciled_ops(NESTED_AND_SIBLINGS) == 0


def test_unreconciled_ops_flags_a_span_outside_its_op_root():
    stray = NESTED_AND_SIBLINGS + [(9, None, 7, "planner.plan", 95, 99, False)]
    assert tracing.unreconciled_ops(stray) == 1


def test_layer_summary_counts_an_error_once_per_layer_it_leaves():
    summary = tracing.layer_summary(NESTED_AND_SIBLINGS, traced_ops=1)
    assert summary["combinadic.rank.calls"] == 2
    assert summary["wom_codec.decode.self_ms"] == 25 / 1e6
    assert summary["combinadic.errors"] == 1
    assert summary["wom_codec.errors"] == 0


def _lookup_sites():
    """The bindings callers actually reach, one per module that imports them."""
    return {
        "cli.main": (cli, "main"),
        "cli.load_state": (cli, "load_state"),
        "device.load_state": (device, "load_state"),
        "womcode.load_state": (womcode, "load_state"),
        "device.validate": (device, "validate"),
        "wom_codec.message_to_payload": (wom_codec, "message_to_payload"),
        "message_codec.unrank": (message_codec, "unrank"),
        "combinadic.unrank": (combinadic, "unrank"),
        "planner.binomial": (planner, "binomial"),
        "bounds.binomial": (bounds, "binomial"),
        "message_codec.binomial": (message_codec, "binomial"),
        "WitArray.apply_image": (device.WitArray, "apply_image"),
    }


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_install_patches_every_lookup_site_and_remove_restores_it(tmp_path):
    sites = _lookup_sites()
    originals = {key: getattr(owner, attr) for key, (owner, attr) in sites.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, (owner, attr) in sites.items():
            assert getattr(owner, attr) is not originals[key], key
        assert cli.load_state is device.load_state is womcode.load_state
        assert planner.binomial is bounds.binomial is combinadic.binomial
        session = str(tmp_path / "s.wom")
        tracer.op_id = 0
        assert _run(["plan", "--v", "26,26", "--file", session]) == 0
        tracer.op_id = 1
        assert _run(["write", "--file", session, "5"]) == 0
    finally:
        tracer.remove()
    for key, (owner, attr) in sites.items():
        assert getattr(owner, attr) is originals[key], key

    names = {span[3] for span in tracer.spans}
    assert {"cli.main", "planner.plan", "bounds.z_bound", "device.save_state",
            "wom_codec.encode_write", "combinadic.unrank"} <= names
    assert tracer.binomial_calls > 0
    assert tracing.unreconciled_ops(tracer.spans) == 0

    # The untraced path runs the original functions: nothing more is recorded.
    recorded, counted = len(tracer.spans), tracer.binomial_calls
    assert _run(["read", "--file", session]) == 0
    assert (len(tracer.spans), tracer.binomial_calls) == (recorded, counted)


def test_binomials_are_counted_only_inside_a_traced_op():
    params = planner.plan(2, [2**56] * 10)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # The benchmark's checks: the original validate, called between ops.
        planner.binomial(278, 139)
        assert planner.validate.__wrapped__(params) == []
        assert tracer.binomial_calls == 0
        planner.plan(2, [2**56] * 10)
    finally:
        tracer.remove()
    assert tracer.binomial_calls > 0
