"""End-to-end command-line behavior, including exit codes and file sessions."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

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
        assert "corrupt" in err and "window-order: h_2=-1 not positive" in err

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
        code, _, err = run(capsys, "plan", "--v", "7,2", "--file", session)
        assert code == 3
        assert "refusing" in err

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
