import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcap import (PauliChannel, SimConfig, StabilizerCode, catalog, coherent_bound, depolarizing,
                  sample_self_orthogonal, simulate, write_code_file)
from qcap.cli import SWEEP_COLUMNS, SWEEP_SCHEMA, run
from qcap.exponent import exponent
from qcap.gf import is_prime
from qcap.simconcat import fidelity_bound_exact

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "qcap" / "schemas" / "result.schema.json")
    .read_text())


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def check_schema(payload, title):
    for key in SCHEMA["required"]:
        assert key in payload
    manifest = payload["manifest"]
    for key in SCHEMA["properties"]["manifest"]["required"]:
        assert key in manifest
    assert manifest["tool"] == "qcap"
    variants = {v["title"]: v for v in SCHEMA["properties"]["result"]["oneOf"]}
    for key in variants[title]["required"]:
        assert key in payload["result"]
    # no key outside the variant: a leaked "trace" or "value" fails here
    assert set(payload["result"]) <= set(variants[title]["properties"])
    for key, spec in variants[title]["properties"].items():
        if key in payload["result"]:
            assert spec.get("minimum", -math.inf) <= payload["result"][key], key
            assert payload["result"][key] <= spec.get("maximum", math.inf), key


def test_bound_json_matches_library(capsys):
    payload = run_json(capsys, ["bound", "--code", "rep3", "--d", "2", "--p", "0.1",
                                "--log-base", "2"])
    check_schema(payload, "bound")
    rep = coherent_bound(catalog("rep3", 2), depolarizing(2, 0.1), base=2)
    assert payload["result"]["c_n"] == rep.c_n
    assert payload["result"]["H_cond"] == rep.H_cond


SIMULATE = ["simulate", "--inner", "rep3", "--d", "2", "--N", "4", "--K", "1", "--p", "0.05",
            "--trials", "100", "--seed", "7"]
EXPONENT = ["exponent", "--code", "trivial1", "--d", "2", "--p", "0.05", "--rate", "0.25"]
# an outer code for SIMULATE's kN = 4 labels and K = 1, which the tests that
# pass it as --outer outer.code write to their working directory
OUTER = sample_self_orthogonal(2, 8, 3, 5)


@pytest.mark.parametrize("argv", [
    ["bound", "--code", "rep2", "--d", "3", "--p", "0.2552"],
    EXPONENT,
    EXPONENT + ["--oracle-grid", "20"],
    SIMULATE,
    SIMULATE + ["--resample-outer"],
    SIMULATE + ["--outer", "outer.code"],
    ["fbound", "--inner", "rep3", "--d", "2", "--N", "4", "--K", "1", "--p", "0.05"],
    ["oracle-check", "--code", "rep2", "--d", "2", "--p", "0.1"],
], ids=["bound", "exponent", "exponent-oracle-grid", "simulate-fixed", "simulate-resampled",
        "simulate-explicit", "fbound", "oracle-check"])
def test_replay_reproduces_result_bytes(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_code_file(StabilizerCode(OUTER), "outer.code")
    first = run_json(capsys, argv)
    check_schema(first, argv[0])
    second = run_json(capsys, argv)
    assert (json.dumps(first["result"], sort_keys=True)
            == json.dumps(second["result"], sort_keys=True))


def test_bound_from_code_file(tmp_path, capsys):
    path = tmp_path / "c.code"
    write_code_file(catalog("rep2", 2), path)
    payload = run_json(capsys, ["bound", "--code", str(path), "--p", "0.1"])
    assert payload["result"]["n"] == 2


def test_sweep_csv_row_count_and_schema(capsys):
    code = run(["sweep", "--code", "rep2", "--d", "2", "--p-min", "0", "--p-max", "0.3",
                "--steps", "7"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("# manifest: ")
    assert out[1] == f"# schema: {SWEEP_SCHEMA}"
    assert out[2] == ",".join(SWEEP_COLUMNS)
    assert len(out) == 3 + 7
    first = out[3].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_sweep_out_file(tmp_path, capsys):
    dest = tmp_path / "sweep.csv"
    code = run(["sweep", "--code", "trivial1", "--d", "2", "--p-min", "0.1",
                "--p-max", "0.2", "--steps", "2", "--out", str(dest)])
    assert code == 0
    assert len(dest.read_text().strip().splitlines()) == 5


def test_exponent_json(capsys):
    payload = run_json(capsys, ["exponent", "--code", "trivial1", "--d", "2",
                                "--p", "0.05", "--rate", "0.0", "--oracle-grid", "60"])
    check_schema(payload, "exponent")
    rep = exponent(catalog("trivial1", 2), depolarizing(2, 0.05), 0.0)
    assert payload["result"]["E"] == rep.value
    assert payload["result"]["critical_rate"] == rep.critical_rate
    # the grid oracle upper-bounds the solver; 60 steps resolve to a few percent
    assert 0 <= payload["result"]["grid_oracle"] - payload["result"]["E"] < 0.05


def test_simulate_json_and_reproducibility(capsys):
    argv = ["simulate", "--inner", "rep3", "--d", "2", "--outer", "random",
            "--N", "4", "--K", "1", "--p", "0.05", "--trials", "200", "--seed", "7",
            "--resample-outer"]
    payload = run_json(capsys, argv)
    check_schema(payload, "simulate")
    assert payload["manifest"]["seed_contract"] == 4
    assert "seed_contract" in SCHEMA["properties"]["manifest"]["properties"]
    assert "seed_contract" not in payload["result"]
    again = run_json(capsys, argv)
    assert payload["result"] == again["result"]


def test_simulate_outer_file_matches_library(tmp_path, capsys):
    path = tmp_path / "outer.code"
    write_code_file(StabilizerCode(OUTER), path)
    payload = run_json(capsys, SIMULATE + ["--outer", str(path)])
    check_schema(payload, "simulate")
    cfg = SimConfig(inner=catalog("rep3", 2), outer=OUTER, N=4, K=1,
                    channel=depolarizing(2, 0.05), trials=100, seed=7)
    report = simulate(cfg)
    assert report.failures > 0
    assert payload["result"] == dataclasses.asdict(report)


def test_simulate_outer_file_is_checked_against_the_inner_code_only(tmp_path, capsys):
    # as a code of its own, an outer code over trivial1/d=13's kN = 6 labels
    # would have a 13^6-cell array, over the array guard; no such array is
    # built, so its header is checked against the inner code's d and kN only
    path = tmp_path / "outer.code"
    write_code_file(StabilizerCode(sample_self_orthogonal(13, 12, 6, 0)), path)
    argv = ["simulate", "--inner", "trivial1", "--d", "13", "--N", "6", "--K", "0",
            "--p", "0.0", "--trials", "2", "--outer", str(path)]
    assert run_json(capsys, argv)["result"]["failures"] == 0
    # a header with n != kN is refused before its rows, whose digits are out
    # of range, are read
    path.write_text("13 5 0\n" + "99 " * 10 + "\n")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "(d, n) = (13, 5), expected (13, 6)" in err and "line 2" not in err


def test_fbound_json(capsys):
    # at N = K = 2, p = 0.065 the type probabilities sum to just above 1
    for N, K, p in ((6, 1, 0.1), (2, 2, 0.065)):
        payload = run_json(capsys, ["fbound", "--inner", "trivial1", "--d", "2",
                                    "--N", str(N), "--K", str(K), "--p", str(p)])
        check_schema(payload, "fbound")
        expect = fidelity_bound_exact(catalog("trivial1", 2), N, K, depolarizing(2, p))
        assert payload["result"]["infidelity_bound"] == expect


def test_many_part_compositions_run(capsys):
    # trivial5/d=2 has 2^10 cells, the number of parts of its simplex grid
    run_json(capsys, ["fbound", "--inner", "trivial5", "--d", "2", "--N", "1", "--K", "0",
                      "--p", "0.1"])
    run_json(capsys, ["exponent", "--code", "trivial5", "--d", "2", "--p", "0.1",
                      "--rate", "0.5", "--oracle-grid", "1"])


def test_oracle_check(capsys):
    code = run(["oracle-check", "--code", "rep2", "--d", "2", "--p", "0.1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "difference" in captured.err
    payload = json.loads(captured.out)
    check_schema(payload, "oracle-check")
    assert abs(payload["result"]["difference"]) < 1e-9


NO_RNG_SCRIPT = """
import contextlib, io, sys
from qcap import catalog, concatenate, direct_sum
from qcap.cli import run

codes = [catalog(f"rep{n}", d) for n in range(2, 8) for d in (2, 3, 5)]
codes += [catalog(f"trivial{n}", d) for n in range(1, 4) for d in (2, 3, 5)]
codes += [catalog("five_qubit", 2)]
concatenate(catalog("rep3", 2), catalog("five_qubit", 2))
direct_sum(catalog("rep2", 3), catalog("trivial1", 3))
commands = [
    ["catalog"],
    ["bound", "--code", "rep3", "--d", "2", "--p", "0.1"],
    ["sweep", "--code", "rep7", "--d", "3", "--p-min", "0.2", "--p-max", "0.3", "--steps", "3"],
    ["fbound", "--inner", "rep3", "--d", "2", "--N", "4", "--K", "1", "--p", "0.05"],
    ["exponent", "--code", "trivial1", "--d", "2", "--p", "0.05", "--rate", "0.25",
     "--oracle-grid", "20"],
    ["oracle-check", "--code", "rep2", "--d", "3", "--p", "0.2"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = [run(argv) for argv in commands]
    before = "numpy.random" in sys.modules
    status.append(run(["simulate", "--inner", "rep3", "--d", "2", "--N", "4", "--K", "1",
                       "--p", "0.05", "--trials", "10"]))
print(status, before, "numpy.random" in sys.modules)
"""


def test_commands_other_than_simulate_never_load_numpy_random():
    # codes take the canonical completion, so building them and every
    # command but simulate leave numpy.random unloaded; simulate, which
    # draws its errors from it, shows that the check can see it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", NO_RNG_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0,", "0]", "False", "True"]


def test_catalog_lists_names(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "rep(n)" in out and "five_qubit" in out


def test_validation_exit_codes(tmp_path, capsys):
    assert run(["bound", "--code", "nosuch", "--d", "2", "--p", "0.1"]) == 2
    capsys.readouterr()
    assert run(["bound", "--code", "rep3", "--d", "2"]) == 2  # missing --p
    capsys.readouterr()
    assert run(["bound", "--code", "rep3", "--d", "4", "--p", "0.1"]) == 2  # composite d
    capsys.readouterr()
    assert run(["exponent", "--code", "trivial1", "--d", "2", "--p", "0.1",
                "--rate", "2.0"]) == 2
    capsys.readouterr()
    assert run(["simulate", "--inner", "rep3", "--N", "4", "--K", "1", "--p", "0.1",
                "--trials", "5"]) == 2  # catalog inner without --d
    capsys.readouterr()
    outer = tmp_path / "outer.code"
    write_code_file(catalog("rep4", 2), outer)
    assert run(["simulate", "--inner", "trivial1", "--d", "2", "--outer", str(outer),
                "--N", "4", "--K", "1", "--p", "0.1", "--trials", "5",
                "--resample-outer"]) == 2  # an explicit outer code is never resampled
    capsys.readouterr()
    chan = tmp_path / "chan.txt"
    chan.write_text("0 0 0.9\n1 0 0.1\n")
    sweep = ["sweep", "--code", "rep3", "--d", "2", "--p-min", "0.1", "--p-max", "0.2"]
    for argv, message in ((sweep + ["--steps", "0"], "--steps must be >= 1"),
                          (sweep + ["--steps", "2", "--channel", "custom", "--probs", str(chan)],
                           "depolarizing family only")):
        assert run(argv) == 2
        assert message in capsys.readouterr().err


def test_d_must_match_the_code_file(tmp_path, capsys):
    path = tmp_path / "rep3.code"
    write_code_file(catalog("rep3", 2), path)
    for argv in (["bound", "--code", str(path), "--p", "0.1"],
                 ["fbound", "--inner", str(path), "--N", "2", "--K", "1", "--p", "0.1"]):
        run_json(capsys, argv)
        run_json(capsys, argv + ["--d", "2"])
        assert run(argv + ["--d", "3"]) == 2
        assert "does not match" in capsys.readouterr().err


def test_custom_channel_file_takes_d_from_the_code(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    path.write_text("0 0 0.8\n1 0 0.1\n0 1 0.1\n")  # a d=3 channel that never uses 2
    payload = run_json(capsys, ["bound", "--code", "rep2", "--d", "3", "--channel", "custom",
                                "--probs", str(path)])
    probs = [[0.8, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]
    rep = coherent_bound(catalog("rep2", 3), PauliChannel(3, probs))
    assert payload["result"]["c_n"] == rep.c_n
    path.write_text("0 0 0.8\n3 0 0.2\n")
    assert run(["bound", "--code", "rep2", "--d", "3", "--channel", "custom",
                "--probs", str(path)]) == 2
    capsys.readouterr()


def test_custom_channel_file_rejects_nan_and_repeated_letters(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    for text in ("0 0 nan\n", "0 0 0.5\n0 0 1.0\n"):
        path.write_text(text)
        assert run(["bound", "--code", "rep3", "--d", "2", "--channel", "custom",
                    "--probs", str(path)]) == 2
        capsys.readouterr()


def test_exponent_rejects_oracle_grid_zero(capsys):
    assert run(["exponent", "--code", "trivial1", "--d", "2", "--p", "0.1", "--rate", "0.5",
                "--oracle-grid", "0"]) == 2
    capsys.readouterr()


def test_exponent_rejects_a_code_with_no_logical_qudits(tmp_path, capsys):
    # k = 0 leaves no rate to count: a validation error, not a division by zero
    path = tmp_path / "k0.code"
    path.write_text("2 1 0\n1 0\n")
    argv = ["exponent", "--code", str(path), "--d", "2", "--p", "0.05", "--rate", "0.5"]
    for extra in ([], ["--oracle-grid", "4"]):
        assert run(argv + extra) == 2
        assert "k >= 1" in capsys.readouterr().err


def test_grid_oracle_guard_counts_cells(capsys):
    # 3,268,760 grid points x 16 support cells: under a guard on points
    # alone this ran for seconds and allocated gigabytes
    start = time.process_time()
    assert run(["exponent", "--code", "rep3", "--d", "2", "--p", "0.05", "--rate", "0.25",
                "--oracle-grid", "10"]) == 3
    assert time.process_time() - start < 2.0
    capsys.readouterr()


def test_exponent_has_no_log_base_flag(capsys):
    # E is reported in base-d logarithms only; the flag is refused rather
    # than recorded in the manifest and ignored
    with pytest.raises(SystemExit) as exc:
        run(["exponent", "--code", "trivial1", "--d", "2", "--p", "0.05", "--rate", "0.25",
             "--log-base", "2"])
    assert exc.value.code == 2
    payload = run_json(capsys, ["exponent", "--code", "trivial1", "--d", "2", "--p", "0.05",
                                "--rate", "0.25"])
    assert "log_base" not in payload["manifest"]["parameters"]


def test_ignored_channel_flags_are_refused(tmp_path, capsys):
    # a flag the chosen channel does not read exits 2 and names the flag,
    # rather than being recorded in the manifest and ignored
    chan = tmp_path / "chan.txt"
    chan.write_text("0 0 0.9\n1 0 0.1\n")
    sweep = ["sweep", "--code", "rep3", "--d", "2", "--p-min", "0.1", "--p-max", "0.2",
             "--steps", "2"]
    for argv, flag in (
            (["bound", "--code", "rep3", "--d", "2", "--p", "0.1", "--probs", str(chan)],
             "--probs"),
            (["bound", "--code", "rep3", "--d", "2", "--channel", "custom", "--probs", str(chan),
              "--p", "0.3"], "--p"),
            (["fbound", "--inner", "rep3", "--d", "2", "--N", "2", "--K", "1",
              "--channel", "custom", "--probs", str(chan), "--p", "0.3"], "--p"),
            (sweep + ["--p", "0.4"], "--p"),
            (sweep + ["--probs", str(chan)], "--probs")):
        assert run(argv) == 2
        assert flag in capsys.readouterr().err
    payload = run_json(capsys, ["bound", "--code", "rep3", "--d", "2", "--channel", "custom",
                                "--probs", str(chan)])
    assert "p" not in payload["manifest"]["parameters"]
    run(sweep)
    manifest = json.loads(capsys.readouterr().out.splitlines()[0].removeprefix("# manifest: "))
    assert manifest["parameters"]["channel"] == "depolarizing"
    assert "p" not in manifest["parameters"] and "probs" not in manifest["parameters"]


def test_fbound_rejects_no_outer_blocks(tmp_path, capsys):
    assert run(["fbound", "--inner", "rep3", "--d", "2", "--N", "0", "--K", "0",
                "--p", "0.1"]) == 2
    capsys.readouterr()
    # an inner code with k = 0 has no logical labels for outer blocks to carry
    path = tmp_path / "k0.code"
    path.write_text("2 1 0\n1 0\n")
    for cmd in (["fbound"], ["simulate", "--trials", "5"]):
        assert run(cmd + ["--inner", str(path), "--N", "4", "--K", "0", "--p", "0.1"]) == 2
        assert "k >= 1" in capsys.readouterr().err


def test_fbound_guard_exits_fast(capsys):
    # the fold's big-integer work grows about as N^4 on one syndrome row:
    # N = 400 runs for about 44 s, yet has fewer than 10^7 joint types;
    # N = 16000 must be refused before its table of b**b (about 280 MB) is
    # built; trivial14 and rep26 (arrays of 2^28 and 2^27 cells) fail the
    # array-build guard, while trivial12 and rep24 pass it (0.8 and 1.6 GB)
    # and must be refused by the fold's guard.  CPU time, not wall time, so
    # that a busy host does not fail the test.
    for inner, N in (("trivial1", 400), ("trivial1", 16000), ("trivial14", 1), ("rep26", 2),
                     ("trivial12", 1), ("rep24", 2)):
        start = time.process_time()
        assert run(["fbound", "--inner", inner, "--d", "2", "--N", str(N), "--K", "1",
                    "--p", "0.05"]) == 3
        assert time.process_time() - start < 2.0
    capsys.readouterr()


def test_simulate_rejects_outer_code_over_another_field(tmp_path, capsys):
    path = tmp_path / "outer.code"
    write_code_file(catalog("rep4", 3), path)  # the shape of rep4/d=3 fits N=4, K=1
    assert run(["simulate", "--inner", "trivial1", "--d", "2", "--outer", str(path),
                "--N", "4", "--K", "1", "--p", "0.1", "--trials", "20"]) == 2
    capsys.readouterr()


def test_guard_exit_code(tmp_path, capsys):
    big, huge = tmp_path / "big.code", tmp_path / "huge.code"
    big.write_text("2 21 21\n")  # d^(n+k) = 2^42 exceeds the array guard
    # trivial400 and a 400-qudit file are refused before their completions
    # are built, which alone take seconds and grow about 8x per doubling of n
    huge.write_text("2 400 400\n")
    for code in (str(big), "trivial400", str(huge)):
        start = time.process_time()
        assert run(["bound", "--code", code, "--d", "2", "--p", "0.1"]) == 3
        assert time.process_time() - start < 2.0
    capsys.readouterr()


def test_array_build_guard_boundary(tmp_path, monkeypatch, capsys):
    # 8 (d^2 + 2) bytes per cell against 2^32: rep15/d=3 needs 3.79e9 bytes
    # and rep25/d=2 3.22e9, so both are admitted
    assert catalog("rep15", 3).n == 15 and catalog("rep25", 2).n == 25

    def unbuilt(*args, **kwargs):
        raise AssertionError("a channel or an array was built")

    monkeypatch.setattr("qcap.cli.depolarizing", unbuilt)
    monkeypatch.setattr("qcap.cli.coherent_bound", unbuilt)
    path, past_floats = tmp_path / "huge.code", tmp_path / "past_floats.code"
    path.write_text("2 1000000000 1000000000\n")
    # n + k past the float range is compared as an int
    past_floats.write_text(f"2 {10**400} 1\n")
    for code, d in (("rep16", "3"), ("rep26", "2"), ("trivial1", "1000003"), (str(path), "2"),
                    ("trivial" + "9" * 401, "2"), (str(past_floats), "2")):
        start = time.process_time()
        assert run(["bound", "--code", code, "--d", d, "--p", "0.1"]) == 3
        assert time.process_time() - start < 2.0
        assert capsys.readouterr().err.startswith("error (guard): ")


def test_memory_error_exits_with_the_guard_code(monkeypatch, capsys):
    # a build under the guard can still fail on a host with less free memory
    for exc, message in ((MemoryError("Unable to allocate 8 GiB"), "Unable to allocate 8 GiB"),
                         (MemoryError(), "out of memory")):
        def raise_it(*args):
            raise exc

        monkeypatch.setattr("qcap.cli.coherent_bound", raise_it)
        assert run(["bound", "--code", "rep3", "--d", "2", "--p", "0.1"]) == 3
        assert capsys.readouterr().err == f"error (guard): {message}\n"


def test_code_file_with_huge_modulus_fails_fast(tmp_path, capsys):
    path = tmp_path / "huge.code"
    path.write_text("1000000000000000003 1 1\n")  # a prime near 10^18
    start = time.perf_counter()
    assert run(["bound", "--code", str(path), "--p", "0.1"]) == 2
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_code_file_rejects_no_qudits(tmp_path, capsys):
    path = tmp_path / "empty.code"
    path.write_text("2 0 0\n")
    assert run(["bound", "--code", str(path), "--p", "0.1"]) == 2
    assert "n = 0" in capsys.readouterr().err


def test_code_file_rejects_out_of_range_digit(tmp_path, capsys):
    path = tmp_path / "digit.code"
    path.write_text("2 3 1\n3 0 1 0 0 0\n0 0 1 0 1 0\n")
    assert run(["bound", "--code", str(path), "--p", "0.1"]) == 2
    assert "line 2: digit 3 out of range for d=2" in capsys.readouterr().err


def test_bad_flags_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--nonsense"])
    assert exc.value.code == 2


def test_out_flag_writes_json(tmp_path, capsys):
    dest = tmp_path / "res.json"
    assert run(["bound", "--code", "trivial1", "--d", "3", "--p", "0.2552",
                "--out", str(dest)]) == 0
    payload = json.loads(dest.read_text())
    assert payload["result"]["c_n"] < 0  # ternary unencoded bound is negative here


# tokens that int() or float() reject, or that parse to a value out of range
GARBAGE = ("x", "-1", "1e3", "nan", "inf", "1e400", "0x1", "1.5", "\u00b2", "99999999999999999999")
# non-ASCII decimal digits, which int() reads as 2 and 3
NON_ASCII = {2: "\u0662", 3: "\uff13"}


@st.composite
def number_tokens(draw, value):
    """str(value) mostly; sometimes its non-ASCII form or a garbage token."""
    roll = draw(st.integers(0, 15))
    if roll == 0:
        return draw(st.sampled_from(GARBAGE))
    if roll == 1 and value in NON_ASCII:
        return NON_ASCII[value]
    return str(value)


@st.composite
def code_file_texts(draw):
    d = draw(st.sampled_from([2, 3, 5, 7] * 3 + [-1, 0, 1, 4, 6]))
    # a prime d with a valid n builds an array of up to d^(2n) cells: keep it small
    largest = max(m for m in range(5) if d ** (2 * m) <= 3**8) if is_prime(d) else 4
    n = draw(st.integers(-1, largest))
    k = draw(st.integers(-1, max(n, 0) + 1))
    header = [draw(number_tokens(v)) for v in (d, n, k)]
    if draw(st.integers(0, 7)) == 0:  # a wrong token count
        header = draw(st.sampled_from([header[:2], header + ["0"]]))
    lines = [" ".join(header)]
    count = max(n - k, 0)
    for _ in range(draw(st.sampled_from([count] * 4 + [count + 1, max(count - 1, 0)]))):
        if draw(st.booleans()):  # 2n space-separated digits
            size = draw(st.sampled_from([2 * n] * 8 + [2 * n + 1, max(2 * n - 1, 0)]))
            toks = [draw(number_tokens(draw(st.integers(-1, max(d, 1))))) for _ in range(size)]
            lines.append(" ".join(toks))
        else:  # a digit string over Z_{d^2}
            size = draw(st.sampled_from([n] * 8 + [n + 1, max(n - 1, 0)]))
            digits = [draw(number_tokens(draw(st.integers(0, 9)))) for _ in range(size)]
            lines.append("".join(digits))
    lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "# comment"])))
    return "\n".join(lines) + "\n"


@st.composite
def channel_file_texts(draw):
    probs = st.sampled_from(["1", "0.5", "0.25", "0", "-0.1"] + list(GARBAGE))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        toks = [draw(number_tokens(draw(st.integers(-1, 3)))) for _ in range(2)] + [draw(probs)]
        lines.append(" ".join(draw(st.sampled_from([toks] * 8 + [toks[:2], toks + ["0"]]))))
    if lines and draw(st.integers(0, 3)) == 0:
        lines.append(lines[0])  # a repeated letter
    valid = ["0 0 1\n", "0 0 0.5\n1 0 0.5\n", "0 0 0.7\n1 0 0.1\n0 1 0.1\n1 1 0.1\n"]
    return draw(st.sampled_from(["\n".join(lines) + "\n"] * 2 + valid))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(code_text=code_file_texts(), channel_text=channel_file_texts())
def test_bound_parses_any_code_and_channel_file(tmp_path, capsys, code_text, channel_text):
    code_path = tmp_path / "fuzz.code"
    channel_path = tmp_path / "fuzz.chan"
    code_path.write_text(code_text, encoding="utf-8")
    channel_path.write_text(channel_text, encoding="utf-8")
    # the second run reads the channel file even when the code file is invalid
    for code in ([str(code_path)], ["trivial1", "--d", "3"]):
        status = run(["bound", "--code", *code, "--channel", "custom",
                      "--probs", str(channel_path)])
        capsys.readouterr()
        assert status in (0, 2, 3)
