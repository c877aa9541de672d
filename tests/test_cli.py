"""End-to-end command-line behavior, including exit codes and file sessions."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from womcode import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_example_parameters(self, capsys):
        code, out, _ = run(capsys, "plan", "--m", "2", "--writes", "10", "--bits", "56")
        assert code == 0
        assert "h: 139 130 120 110 99 88 76 64 51 36" in out
        assert "n: 278" in out
        assert "rate: 2.0144" in out
        assert "half-optimal (h1 <= z): yes" in out

    def test_machine_format(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--writes", "10", "--bits", "56", "--format", "machine"
        )
        assert code == 0
        record = json.loads(out)
        assert record["h"] == [139, 130, 120, 110, 99, 88, 76, 64, 51, 36]
        assert record["n"] == 278
        assert record["z"] == 178
        assert record["half_optimal_ok"] is True

    def test_trivial_single_write(self, capsys):
        code, out, _ = run(capsys, "plan", "--m", "2", "--writes", "1", "--bits", "1")
        assert code == 0
        assert "h: 1" in out
        assert "n: 2" in out

    def test_m3_discrepancy_note(self, capsys):
        code, out, _ = run(capsys, "plan", "--m", "3", "--writes", "2", "--bits", "56")
        assert code == 0
        assert "n: 93" in out
        assert "96" in out and "note" in out

    def test_explicit_v_list(self, capsys):
        code, out, _ = run(capsys, "plan", "--v", "7,2")
        assert code == 0
        assert "h: 2 1" in out

    def test_flag_conflicts(self, capsys):
        code, _, err = run(capsys, "plan", "--v", "7,2", "--bits", "3")
        assert code == 3
        assert "error" in err
        code, _, _ = run(capsys, "plan", "--bits", "3")
        assert code == 3
        code, _, _ = run(capsys, "plan")
        assert code == 3

    def test_two_2048_bit_writes(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--bits", "2048", "--writes", "2", "--format", "machine"
        )
        assert code == 0
        record = json.loads(out)
        assert record["h"] == [1717, 1293]
        assert record["z"] == 2653

    def test_oversized_cardinality_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "plan", "--bits", "16384", "--writes", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "2**8192" in err
        assert "Traceback" not in err

    def test_huge_bits_rejected_before_building_the_cardinality(self, capsys):
        # 2**(10**12) would need about 125 GB; the limit is checked first.
        huge = str(10**12)
        for argv in (
            ("plan", "--bits", huge, "--writes", "2"),
            ("bound", "--bits", huge, "--writes", "2"),
            ("rates", "--bits", huge, "--tmax", "3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == ""
            assert err == (
                "error: message cardinalities must be below 2**8192, "
                f"got one of {10**12 + 1} bits\n"
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ("plan", "--bits", "-1", "--writes", "2"),
            ("bound", "--bits", "-1", "--writes", "2"),
            ("rates", "--bits", "-1"),
        ],
    )
    def test_negative_bits_is_a_domain_error(self, capsys, argv):
        assert run(capsys, *argv) == (3, "", "error: --bits must be nonnegative, got -1\n")

    def test_bits_limit_matches_cardinality_limit(self, capsys):
        # 2**8192 is the first cardinality refused, whether given as --bits or --v.
        by_bits = run(capsys, "plan", "--bits", "8192", "--writes", "2")
        by_v = run(capsys, "plan", "--v", f"{2**8192},{2**8192}")
        assert by_bits == by_v
        assert by_bits[0] == 3 and "got one of 8193 bits" in by_bits[2]

    def test_m_limit(self, capsys):
        code, out, _ = run(capsys, "plan", "--m", "4096", "--bits", "8191", "--writes", "3")
        assert code == 0 and "n: 24576" in out
        for m in ("4097", "30000"):
            code, out, err = run(capsys, "plan", "--m", m, "--bits", "56", "--writes", "3")
            assert (code, out) == (3, "")
            assert err == f"error: m must be at most 4096, got {m}\n"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["plan", "--m", "notanumber"])
        assert info.value.code == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "plan", "--v", "7,2", "--format", "machine")
        _, second, _ = run(capsys, "plan", "--v", "7,2", "--format", "machine")
        assert first == second


class TestSessionCommands:
    @pytest.fixture
    def session(self, tmp_path, capsys):
        path = tmp_path / "demo.wom"
        code, _, _ = run(capsys, "plan", "--v", "7,2", "--file", str(path))
        assert code == 0
        return str(path)

    def test_fresh_read(self, session, capsys):
        code, out, _ = run(capsys, "read", "--file", session)
        assert code == 0
        assert "generation: 1" in out
        assert "message: 0" in out

    def test_fresh_read_single_write(self, tmp_path, capsys):
        # A fresh one-write session holds no legal last write: its reading is
        # a corrupt-state error, not generation 1, message 0.
        path = str(tmp_path / "one.wom")
        assert run(capsys, "plan", "--v", "5", "--file", path)[0] == 0
        assert run(capsys, "read", "--file", path) == (
            5, "", "error: corrupt session state: all-zero word is not a legal last write\n"
        )

    def test_write_read_chain(self, session, capsys):
        code, out, _ = run(capsys, "write", "--file", session, "3")
        assert code == 0
        assert "generation: 1" in out

        code, out, _ = run(capsys, "read", "--file", session, "--format", "machine")
        assert code == 0
        assert json.loads(out) == {"generation": 1, "message": "3"}

        code, _, _ = run(capsys, "write", "--file", session, "1")
        assert code == 0

        code, out, _ = run(capsys, "read", "--file", session, "--format", "machine")
        assert code == 0
        assert json.loads(out) == {"generation": 2, "message": "1"}

    def test_hex_message(self, session, capsys):
        code, _, _ = run(capsys, "write", "--file", session, "0x3")
        assert code == 0
        code, out, _ = run(capsys, "read", "--file", session)
        assert "message: 3" in out

    def test_out_of_range_message(self, session, capsys):
        code, _, err = run(capsys, "write", "--file", session, "7")
        assert code == 3
        assert "out of range" in err

    def test_exhaustion_exit_code(self, session, capsys):
        run(capsys, "write", "--file", session, "3")
        run(capsys, "write", "--file", session, "1")
        code, _, err = run(capsys, "write", "--file", session, "0")
        assert code == 4
        assert "memory exhausted" in err

    def test_erase_status(self, session, capsys):
        run(capsys, "write", "--file", session, "3")
        code, out, _ = run(capsys, "erase-status", "--file", session, "--format", "machine")
        assert code == 0
        record = json.loads(out)
        assert record["generation"] == 1
        assert record["zero_symbols"] == 1
        assert record["writes_remaining"] == 1
        assert record["wits_programmed"] == 2

    def test_erase_status_fresh(self, session, capsys):
        code, out, _ = run(capsys, "erase-status", "--file", session, "--format", "machine")
        record = json.loads(out)
        assert record["writes_remaining"] == 2
        assert record["wits_programmed"] == 0

    def test_corrupt_file_exit_code(self, session, capsys):
        with open(session, "w") as fh:
            fh.write("womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 0x11\n")
        code, _, err = run(capsys, "read", "--file", session)
        assert code == 5
        assert "corrupt" in err

    @pytest.mark.parametrize("wits", ["0b11", "0_11", "+011", "-011"])
    def test_wit_string_accepted_by_int_is_corrupt(self, session, capsys, wits):
        with open(session, "w") as fh:
            fh.write(f"womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits {wits}\n")
        code, out, err = run(capsys, "read", "--file", session)
        assert code == 5
        assert out == ""
        assert "wit string must be ASCII 0/1" in err

    def test_negative_window_in_file_is_corrupt(self, session, capsys):
        with open(session, "w") as fh:
            fh.write("womstate 1\nm 2\nt 2\nv 7,2\nh 2,-1\nwits 0000\n")
        code, out, err = run(capsys, "read", "--file", session)
        assert code == 5
        assert out == ""
        assert err == (
            f"error: corrupt session state: state file {session}: "
            "window-order: write 1 needs h_2 >= 0, got -1; "
            "window-order: write 2 needs h_2 > h_3, got -1 <= 0\n"
        )

    def test_oversized_cardinality_in_file_is_corrupt(self, session, capsys):
        with open(session, "w") as fh:
            fh.write(f"womstate 1\nm 2\nt 2\nv {2**8192},2\nh 2,1\nwits 0000\n")
        code, _, err = run(capsys, "read", "--file", session)
        assert code == 5
        assert "corrupt" in err and "2**8192" in err

    def test_m_above_limit_in_file_is_corrupt(self, session, capsys):
        with open(session, "w") as fh:
            fh.write(f"womstate 1\nm 4097\nt 2\nv 7,2\nh 2,1\nwits {'0' * 8194}\n")
        code, out, err = run(capsys, "read", "--file", session)
        assert (code, out) == (5, "")
        assert "corrupt" in err and "m must be at most 4096, got 4097" in err

    def test_huge_window_with_short_wit_string_fails_fast(self, session, capsys):
        with open(session, "w") as fh:
            fh.write("womstate 1\nm 2\nt 2\nv 7,2\nh 100000000,1\nwits 0011\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "read", "--file", session)
        assert time.perf_counter() - start < 0.5
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and "wit string length 4" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "read", "--file", str(tmp_path / "nope.wom"))
        assert code == 3
        assert "no session file" in err

    def test_plan_refuses_overwrite(self, session, capsys):
        before = Path(session).read_text()
        for fmt in ("text", "machine"):
            code, out, err = run(capsys, "plan", "--v", "7,2", "--file", session, "--format", fmt)
            assert (code, out) == (3, ""), fmt
            assert err == f"error: refusing to overwrite existing session file {session}\n"
        assert Path(session).read_text() == before

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_failed_save_prints_nothing(self, tmp_path, capsys, monkeypatch, fmt):
        # The session is saved before anything is printed, and the error
        # names the path given, not the temp file written first.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "plan", "--v", "7,2", "--file", "nodir/x.wom", "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "'nodir/x.wom'" in err and ".tmp" not in err
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("extra", ["wits 0000", "note 1"])
    def test_repeated_or_unknown_field_is_corrupt(self, session, capsys, extra):
        # A second wits line must not replace the first: a write on top of
        # it would clear wits the file had programmed.
        record = "womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 1111\n" + extra + "\n"
        Path(session).write_text(record)
        key = extra.split()[0]
        kind = "repeated" if key == "wits" else "unknown"
        for argv in (("read",), ("write", "3")):
            code, out, err = run(capsys, *argv, "--file", session)
            assert (code, out) == (5, "")
            assert err == (
                f"error: corrupt session state: state file {session}: {kind} field '{key}'\n"
            )
        assert Path(session).read_text() == record

    def test_write_survives_free_write(self, session, capsys):
        # Message 0 on a fresh session leaves it fresh; capacity is kept.
        code, out, _ = run(capsys, "write", "--file", session, "0")
        assert code == 0
        code, out, _ = run(capsys, "erase-status", "--file", session, "--format", "machine")
        assert json.loads(out)["writes_remaining"] == 2


class TestBoundCommand:
    def test_known_two_write_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--v", "26,26", "--format", "machine")
        assert code == 0
        record = json.loads(out)
        assert record["z"] == 7
        assert record["half_optimal_ok"] is True

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "bound", "--writes", "10", "--bits", "56")
        assert code == 0
        assert "z bound: 178 wits" in out
        assert "planned h1: 139" in out


class TestTableCommand:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert "<2^56>^10/278" in out
        assert "<2^56>^2/98" in out
        assert "<26>^2/7" in out
        assert "2.01" in out and "1.14" in out

    def test_machine_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "machine")
        record = json.loads(out)
        last = record["rows"][-1]
        assert last["t"] == 10
        assert last["position_modulation"]["n"] == 278
        assert round(last["position_modulation"]["rate"], 2) == 2.01
        assert last["known"] == {"v": 15, "n": 24, "rate": 1.63}


class TestRatesCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "rates", "--tmax", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,position_modulation,fiat_shamir,rivest_shamir_linear,cohen"
        assert len(lines) == 12  # header + t = 2..12
        by_t = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert by_t[7][4] == ""  # no coset-scheme point at t = 7
        assert by_t[6][4] != ""
        assert by_t[10][4] == "1.6129"

    def test_position_modulation_leads_at_t10(self, capsys):
        _, out, _ = run(capsys, "rates", "--tmax", "10", "--format", "machine")
        row = json.loads(out)["rows"][-1]
        assert row["position_modulation"] > row["fiat_shamir"]
        assert row["position_modulation"] > row["rivest_shamir_linear"]
        assert row["position_modulation"] > row["cohen"]

    def test_bad_tmax(self, capsys):
        code, _, _ = run(capsys, "rates", "--tmax", "1")
        assert code == 3


# What each subcommand needs before argparse reaches an unknown flag.
REQUIRED_ARGS = {
    "plan": (),
    "write": ("--file", "s.wom", "3"),
    "read": ("--file", "s.wom"),
    "erase-status": ("--file", "s.wom"),
    "bound": (),
    "table": (),
    "rates": (),
}


def parser_exit(capsys, argv):
    """(exit code, stdout, stderr) of a command argparse ends itself."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_subcommand_usage_error_and_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    # Python 3.11 reports an unknown flag with the top-level usage, so only
    # the common prefix is pinned; a bad --format value is the subcommand's
    # own error.
    code, out, err = parser_exit(capsys, [command, *REQUIRED_ARGS[command], "--bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: womcode ") and "unrecognized arguments: --bogus" in err
    code, out, err = parser_exit(capsys, [command, *REQUIRED_ARGS[command], "--format", "xml"])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: womcode {command} ")
    assert "argument --format: invalid choice" in err
    code, out, _ = parser_exit(capsys, [command, "--help"])
    assert code == 0
    assert "--format {text,machine}" in out


def test_bare_womcode_usage_error_and_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = parser_exit(capsys, [])
    assert (code, out) == (2, "")
    assert err.startswith("usage: womcode ") and "womcode: error: " in err
    code, out, _ = parser_exit(capsys, ["--help"])
    assert code == 0
    assert "{" + ",".join(REQUIRED_ARGS) + "}" in out


def test_module_entry_point_propagates_exit_codes(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )

    def womcode(*argv):
        return subprocess.run(
            [sys.executable, "-m", "womcode", *argv], env=env, capture_output=True
        ).returncode

    session = str(tmp_path / "demo.wom")
    assert womcode("plan", "--v", "7,2", "--file", session) == 0
    assert womcode("plan", "--no-such-flag") == 2
    assert womcode("write", "--file", session, "3") == 0
    assert womcode("write", "--file", session, "1") == 0
    assert womcode("write", "--file", session, "1") == 4  # write t + 1


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """Each `$ womcode ...` line of README's text blocks, with the lines
    shown under it up to the next blank line or the end of its block."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```text\n(.*?)```", text, re.S):
        for example in block.split("\n\n"):
            command, *shown = example.strip("\n").split("\n")
            if command.startswith("$ womcode "):
                examples.append((shlex.split(command[len("$ womcode "):]), shown))
    return examples


def matches_shown(out, shown):
    """The shown lines are the output, except that each `...` stands for
    any run of lines."""
    pattern = "".join(
        r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in shown
    )
    return re.fullmatch(pattern, out) is not None


def test_readme_examples_match_real_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "plan", "write", "read", "erase-status", "bound", "table", "rates"
    }
    for argv, shown in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert matches_shown(out, shown), (argv, shown, out)


def test_readme_library_values_match_repr():
    # In README's python block, each expression is followed by `# value`, its
    # repr, where `...` stands for any run of characters.  Every other line,
    # assignments among them, is run, and its comment is prose.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace, shown_values = {}, 0
    for line in block.splitlines():
        code, _, shown = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(line, namespace)
            continue
        value = repr(eval(expression, namespace))
        pattern = ".*".join(map(re.escape, shown.strip().split("...")))
        assert re.fullmatch(pattern, value), (code, shown, value)
        shown_values += 1
    assert shown_values == 7
