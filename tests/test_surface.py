"""The public surface is ``womcode.__all__``: every int parameter of a public
callable takes an int, or anything with ``__index__``, and any other value
is a DomainError whose text starts with the parameter's name."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import womcode

SMALL = womcode.plan(2, [7, 2])
FRESH = womcode.fresh_image(SMALL)

# Every name womcode exports, so that a helper cannot become public unnoticed.
PUBLIC = {
    "BoundReport",
    "CapacityError",
    "CodeParams",
    "CorruptStateError",
    "DomainError",
    "GenerationReading",
    "MemoryImage",
    "WitArray",
    "WomCodeError",
    "WriteOnceViolation",
    "binomial",
    "check_half_optimal",
    "code_rate",
    "comparator_rates",
    "decode",
    "delta",
    "detect_generation",
    "encode_write",
    "erase_to",
    "fresh_image",
    "load_state",
    "next_generation",
    "plan",
    "rank",
    "rate",
    "save_state",
    "unrank",
    "validate",
    "z_bound",
}

# Result records: the library fills their fields, so no caller's value
# enters through them.
RECORDS = {"BoundReport", "GenerationReading"}

# For each public callable with an int parameter: valid base arguments, and
# for each such parameter the words its DomainError starts with.
SURFACE = {
    "CodeParams": (
        (2, (7, 2), (2, 1)),
        {"m": "m", "v": "message cardinalities", "h": "window sizes"},
    ),
    "MemoryImage": ((SMALL, (0, 3)), {"symbols": "symbol values"}),
    "WitArray": ((4,), {"n": "wit count"}),
    "binomial": ((5, 2), {"n": "n", "k": "k"}),
    "code_rate": (([7, 2], 4), {"v_list": "message counts", "n": "wit count"}),
    "comparator_rates": ((2, 2), {"t": "write count", "v": "message cardinalities"}),
    "delta": ((7, 2), {"v": "message count", "m": "wit count"}),
    "encode_write": ((FRESH, 2), {"message": "message"}),
    "erase_to": ((FRESH, 1), {"target_zeros": "target zero count"}),
    "plan": ((2, [7, 2]), {"m": "m", "v": "message cardinalities"}),
    "rank": (([0, 1, 1],), {"bits": "bit vector"}),
    "unrank": ((3, 5, 2), {"index": "index", "n": "n", "k": "k"}),
    "z_bound": (([7, 2],), {"v_list": "message cardinalities"}),
}

CASES = [(name, param) for name, (_, words) in SURFACE.items() for param in words]


class Index:
    """Stands for an int the way numpy integers and similar types do."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def int_parameters(obj) -> dict[str, str]:
    """Parameter name -> annotation, for every annotation that mentions int.
    The annotations are read as strings, as every womcode module defers them."""
    params = inspect.signature(obj).parameters.values()
    return {p.name: str(p.annotation) for p in params if "int" in str(p.annotation)}


def call_with(name: str, param: str, replace):
    """Call `name` with its base arguments, where the int that `param` holds
    (for a sequence, its last element) becomes replace(int)."""
    func = getattr(womcode, name)
    args = inspect.signature(func).bind(*SURFACE[name][0]).arguments
    if int_parameters(func)[param] == "int":
        args[param] = replace(args[param])
    else:
        args[param] = [*args[param][:-1], replace(args[param][-1])]
    return func(**args)


def plain(result):
    """A result in a form == compares; a WitArray compares by its fields."""
    return getattr(result, "__dict__", result)


def test_all_is_pinned():
    assert sorted(womcode.__all__) == sorted(PUBLIC | {"__version__"})
    assert all(hasattr(womcode, name) for name in womcode.__all__)


def test_version_is_stated_once():
    """``womcode.__version__`` is the version; pyproject.toml only names it.
    The file is read as text, as Python 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    tables, table = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            table = line.strip("[]")
        elif line.strip():
            key, _, value = line.partition("=")
            tables.setdefault(table, {})[key.strip()] = value.strip()
    assert "version" not in tables["project"]
    assert tables["project"]["dynamic"] == '["version"]'
    assert tables["tool.setuptools.dynamic"] == {"version": '{attr = "womcode.__version__"}'}


def test_every_int_parameter_has_a_row():
    found = set()
    for name in PUBLIC - RECORDS:
        obj = getattr(womcode, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue  # an exception takes a message, not a value to check
        found |= {(name, param) for param in int_parameters(obj)}
    assert found == set(CASES)


@pytest.mark.parametrize("bad", [2.0, 2.5, "2"])
@pytest.mark.parametrize("name, param", CASES)
def test_non_int_is_a_domain_error_naming_the_parameter(name, param, bad):
    word = SURFACE[name][1][param]
    with pytest.raises(womcode.DomainError, match=f"^{re.escape(word)} "):
        call_with(name, param, lambda _: bad)


@pytest.mark.parametrize("name, param", CASES)
def test_index_object_gives_the_int_result(name, param):
    expected = getattr(womcode, name)(*SURFACE[name][0])
    assert plain(call_with(name, param, Index)) == plain(expected)
