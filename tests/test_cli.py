import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from resonance import arrangement, prototypes, stirling, table1
from resonance.arrangement import CharPoly
from resonance.cli import main
from resonance.errors import InternalCheckError
from resonance.table1 import build_report

REFERENCE_MATRIX = "3 2\n1 -1\n-2 0\n-1 -1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_charpoly_json_matches_expected_coeffs(capsys):
    code, out = run_cli(capsys, "charpoly", "--n", "3", "--method", "nbc", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["1", "-7", "15", "-9"]


def test_charpoly_methods_agree(capsys):
    outputs = []
    for method in table1.ROUTES:
        code, out = run_cli(
            capsys, "charpoly", "--n", "3", "--method", method, "--format", "json"
        )
        assert code == 0
        outputs.append(json.loads(out)["coeffs"])
    assert len(outputs) == 3 and outputs[0] == outputs[1] == outputs[2]


def test_regions_value(capsys):
    code, out = run_cli(capsys, "regions", "--n", "4")
    assert code == 0
    assert "370" in out


def test_regions_chamber_method(capsys):
    code, out = run_cli(capsys, "regions", "--n", "3", "--method", "whitney", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"command": "regions", "method": "whitney", "n": 3, "regions": "32"}


def test_betti_depth_limited(capsys):
    code, out = run_cli(capsys, "betti", "--n", "7", "--i-max", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == ["1", "127", "7035", "215439"]


def test_closed_form(capsys):
    code, out = run_cli(capsys, "closed-form", "--i", "3", "--n", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "17153460"
    # b_3(A_4000) < 2^12000 has at most 3613 digits, under the default limit of 4300.
    code, out = run_cli(capsys, "closed-form", "--i", "3", "--n", "4000", "--format", "json")
    assert code == 0
    value = json.loads(out)["value"]
    assert 3000 < len(value) <= 3613 and value.isdigit()


def test_fit_coeffs_from_golden_rows(capsys):
    code, out = run_cli(capsys, "fit-coeffs", "--i", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == {
        "4": "9", "5": "80", "6": "345", "7": "840", "8": "840",
    }


def test_fit_coeffs_index_zero(capsys):
    # b_0(A_n) = 1 for every n, so the fit of one value gives S(n+1, 1).
    assert run_cli(capsys, "fit-coeffs", "--i", "0") == (0, "i=0: c[1]=1\n")


def test_prototypes_command(capsys):
    code, out = run_cli(capsys, "prototypes", "--i", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == {"3": "2", "4": "3"}


def test_circuits_census(capsys):
    code, out = run_cli(capsys, "circuits-census", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["intersecting_triples"] == "13"
    assert payload["tetrahedron_circuits"] == "1"
    assert payload["rectangle_circuits"] == "3"
    assert payload["b3"] == "9"


def test_embed_and_verify_cycle(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    cert = tmp_path / "cert.json"
    code, out = run_cli(
        capsys, "embed", "--input", str(mat), "--verify",
        "--output", str(cert), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 8
    assert payload["verified"] is True
    assert payload["minor_matroid_check"] is True

    code, out = run_cli(capsys, "verify-embed", "--input", str(mat), "--cert", str(cert))
    assert code == 0
    assert "verified: True" in out


def test_embed_commands_enforce_the_minor_check(tmp_path, capsys, monkeypatch):
    from resonance import universality

    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    cert = tmp_path / "cert.json"
    assert main(["embed", "--input", str(mat), "--output", str(cert)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(universality, "minor_matroid_check", lambda emb, matrix: False)
    assert main(["embed", "--input", str(mat), "--verify"]) == 3
    assert "minor matroid check" in capsys.readouterr().err
    code, out = run_cli(capsys, "verify-embed", "--input", str(mat), "--cert", str(cert),
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_consistent"] is True
    assert payload["minor_matroid_check"] is False
    assert payload["verified"] is False


def test_embed_commands_build_one_certificate(tmp_path, capsys, monkeypatch):
    from resonance import universality

    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    cert = tmp_path / "cert.json"
    assert main(["embed", "--input", str(mat), "--output", str(cert)]) == 0
    calls = []
    build = universality.certificate_dict
    monkeypatch.setattr(universality, "certificate_dict", lambda emb: calls.append(emb) or build(emb))
    for argv in (
        ["embed", "--input", str(mat), "--verify"],
        ["verify-embed", "--input", str(mat), "--cert", str(cert)],
    ):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, argv[0]
    assert capsys.readouterr().out.count("verified: True") == 2


TAMPERED = {
    "matrix": [["9", "9"]],
    "decompositions": [],
    "coordinates": ["e1"],
    "ambient_dim": 3,
    "rows": 1,
    "cols": 1,
    "column_order": ["v1"],
    "carriers": {},
    "helpers": {},
}


# In the certificate of [[1]], rows = cols = 1 and ambient_dim = 3.  Each
# value below equals the stored int in Python, but not as JSON text.
RETYPED = [("rows", 1.0), ("cols", 1.0), ("ambient_dim", 3.0), ("rows", True), ("cols", True)]


@pytest.mark.parametrize(
    "text, field, value",
    [pytest.param(REFERENCE_MATRIX, f, v, id=f) for f, v in TAMPERED.items()]
    + [pytest.param("1 1\n1\n", f, v, id=f"{f}-{json.dumps(v)}") for f, v in RETYPED],
)
def test_verify_embed_compares_every_certificate_field(tmp_path, capsys, text, field, value):
    mat = tmp_path / "a.mat"
    mat.write_text(text)
    cert = tmp_path / "cert.json"
    assert main(["embed", "--input", str(mat), "--output", str(cert)]) == 0
    stored = json.loads(cert.read_text())
    assert stored.keys() == TAMPERED.keys() | {"command"}
    stored[field] = value
    cert.write_text(json.dumps(stored))
    capsys.readouterr()
    code, out = run_cli(capsys, "verify-embed", "--input", str(mat), "--cert", str(cert),
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_consistent"] is False
    assert payload["verified"] is False


def test_verify_embed_detects_stale_certificate(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    cert = tmp_path / "cert.json"
    run_cli(capsys, "embed", "--input", str(mat), "--output", str(cert))
    other = tmp_path / "b.mat"
    other.write_text("2 2\n1 0\n0 1\n")
    code, out = run_cli(capsys, "verify-embed", "--input", str(other), "--cert", str(cert))
    assert code == 0
    assert "verified: False" in out


EMBED_TEXT = "ambient dimension: 8\ncolumns: v1 r1,-1 r1,-2 r1,+1 r1,++1 v2 r2,-1\n"


TEXT_OUTPUT = [
    (
        ["charpoly", "--n", "3"],
        "chi(A_3; t) coefficients (descending): 1 -7 15 -9\n"
        "betti: 1 7 15 9\n"
        "regions: 32  (method: ff)\n",
    ),
    (["betti", "--n", "4"], "b_0..b_4 of A_4: 1 15 80 170 104\n"),
    (["regions", "--n", "4"], "regions of A_4: 370  (method: ff)\n"),
    (["closed-form", "--i", "3", "--n", "5"], "b_3(A_5) = 2130\n"),
    (["fit-coeffs", "--i", "2"], "i=2: c[3]=2 c[4]=3\n"),
    (["prototypes", "--i", "2"], "i=2: c[3]=2 c[4]=3\n"),
    (
        ["circuits-census", "--n", "3"],
        "intersecting_triples: 13\ntetrahedron_circuits: 1\n"
        "rectangle_circuits: 3\nb3: 9\n",
    ),
    (["embed", "--input", "{mat}"], EMBED_TEXT),
    (["verify-embed", "--input", "{mat}", "--cert", "{cert}"], EMBED_TEXT + "verified: True\n"),
    (
        ["table1", "--n-max", "2", "--i-max", "2"],
        "b1(A_1): golden=1 computed=1 [MATCH; closed form]\n"
        "b1(A_2): golden=3 computed=3 [MATCH; closed form]\n"
        "b2(A_1): golden=0 computed=0 [MATCH; closed form]\n"
        "b2(A_2): golden=2 computed=2 [MATCH; closed form]\n"
        "R(A_1): golden=2 computed=2 [MATCH; nbc + ff + whitney]\n"
        "R(A_2): golden=6 computed=6 [MATCH; nbc + ff + whitney]\n"
        "computed cells: 6, mismatches: 0\n",
    ),
]


@pytest.mark.parametrize("argv, expected", TEXT_OUTPUT, ids=[a[0] for a, _ in TEXT_OUTPUT])
def test_text_output(tmp_path, capsys, argv, expected):
    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    cert = tmp_path / "cert.json"
    assert main(["embed", "--input", str(mat), "--output", str(cert)]) == 0
    capsys.readouterr()
    argv = [a.format(mat=mat, cert=cert) for a in argv]
    assert run_cli(capsys, *argv) == (0, expected)


# (argv, exit code, part of the one stderr line, or None for the argparse
# usage error, which prints its own format).  The line starts with
# "guard violation: " for exit code 2 and "error: " otherwise.
EXIT_CASES = {
    "badflag": (["charpoly", "--badflag"], 1, None),
    # --threads and --guard-override exist only where the command reads them.
    "closed-form-threads": (["closed-form", "--i", "3", "--n", "9", "--threads", "2"], 1, None),
    "census-override": (["circuits-census", "--n", "3", "--guard-override"], 1, None),
    "table1-override": (["table1", "--n-max", "2", "--i-max", "1", "--guard-override"], 1, None),
    "prototypes-override": (["prototypes", "--i", "2", "--guard-override"], 1, None),
    "guard": (["charpoly", "--n", "8"], 2, "q=59: point-count work capped at"),
    "huge-prime": (
        ["charpoly", "--n", "2", "--method", "ff", "--primes", "3,5,1000000000000000003"],
        1,
        "too large for the point count",
    ),
    "closed-form-i4": (["closed-form", "--i", "4", "--n", "3"], 1, "i in {1, 2, 3}"),
    "missing-file": (["embed", "--input", "{missing}"], 1, "No such file"),
    "bad-primes": (["charpoly", "--n", "3", "--method", "ff", "--primes", "x,y"], 1, "'x'"),
    "empty-primes": (["charpoly", "--n", "3", "--primes", ""], 1, "distinct primes, got 0"),
    "primes-whitney": (
        ["charpoly", "--n", "3", "--method", "whitney", "--primes", "5,7,11,13"],
        1,
        "--primes applies only to --method ff",
    ),
    "primes-text": (
        ["charpoly", "--n", "3", "--primes", "5,seven"],
        1,
        "--primes takes comma-separated integers, got 'seven'",
    ),
    "primes-nbc": (["regions", "--n", "3", "--method", "nbc", "--primes", "x"], 1, "not nbc"),
    "zero-denominator": (["embed", "--input", "{zero}"], 1, "zero denominator"),
    # Refused by the entry syntax before 10^(10^7) is built.
    "exponent-entry": (["embed", "--input", "{exponent}"], 1, "row 1: entries must be"),
    # The cleared column has ~6000-digit entries; the guard reports the
    # asked ambient dimension by its bit length, not in decimal.
    "huge-denominators": (["embed", "--input", "{huge}"], 2, "(asked a 19933-bit number)"),
    "list-certificate": (
        ["verify-embed", "--input", "{mat}", "--cert", "{listed}"],
        1,
        "JSON object",
    ),
    # json.load raises RecursionError on deep nesting.
    "deep-certificate": (
        ["verify-embed", "--input", "{mat}", "--cert", "{deep}"],
        1,
        "certificate nests too deeply",
    ),
    "betti-i-max": (["betti", "--n", "3", "--i-max", "-1"], 1, "i_max=-1"),
    "prototypes-i": (["prototypes", "--i", "-1"], 1, "i=-1"),
    # The census holds all 15! orderings of one image set at i = 4.
    "prototypes-i4": (["prototypes", "--i", "4"], 1, "runs to i = 3"),
    "fit-coeffs-i": (["fit-coeffs", "--i", "-1"], 1, "i=-1"),
    "fit-coeffs-40": (["fit-coeffs", "--i", "40"], 1, "up to n="),  # no golden row
    "fit-coeffs-20000": (["fit-coeffs", "--i", "20000"], 1, "golden Betti values"),
    "betti-n0": (["betti", "--n", "0"], 1, "n must be positive"),
    "whitney-n0": (["regions", "--n", "0", "--method", "whitney"], 1, "n must be in 1..8, got 0"),
    # The recursion would nest 511 calls deep; refused before any work.
    "whitney-n9": (
        ["regions", "--n", "9", "--method", "whitney", "--guard-override"],
        1,
        "deletion/restriction nests 511 calls deep at n=9",
    ),
    "betti-n64": (
        ["betti", "--n", "64", "--i-max", "1", "--guard-override"],
        1,
        "n must be positive and at most 8, got 64",
    ),
    # Past n = 8 a row mod the search's prime no longer fits its int64 key.
    "betti-n9": (["betti", "--n", "9", "--i-max", "2", "--guard-override"], 1, "runs to n = 8"),
    # The range is checked before the guard, so the default guards refuse
    # n = 9 the same way; n = 8 is the guard's, which the override lifts.
    "betti-n9-guard": (["betti", "--n", "9", "--i-max", "2"], 1, "runs to n = 8"),
    "betti-n8-guard": (["betti", "--n", "8", "--i-max", "2"], 2, "NBC search: n capped at 7"),
    "charpoly-n-1": (["charpoly", "--n", "-1"], 1, "n must be positive"),
    "closed-form-n-3": (["closed-form", "--i", "1", "--n", "-3"], 1, "n must be positive"),
    # Values that could not be printed in decimal are refused before any work.
    "closed-form-i3-huge": (["closed-form", "--i", "3", "--n", "200000"], 1, "decimal digits"),
    "census-huge": (["circuits-census", "--n", "200000"], 1, "decimal digits"),
    "closed-form-i2-huge": (["closed-form", "--i", "2", "--n", "20000"], 1, "decimal digits"),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_codes(tmp_path, capsys, case):
    argv, code, message = EXIT_CASES[case]
    files = {
        "missing": tmp_path / "missing.mat",
        "zero": tmp_path / "zero.mat",
        "mat": tmp_path / "a.mat",
        "listed": tmp_path / "list.json",
        "exponent": tmp_path / "exponent.mat",
        "huge": tmp_path / "huge.mat",
        "deep": tmp_path / "deep.json",
    }
    files["zero"].write_text("1 2\n1 1/0\n")
    files["exponent"].write_text("1 1\n1e10000000\n")
    files["huge"].write_text("3 1\n" + "".join(f"1/{10**3000 + k}\n" for k in (1, 3, 7)))
    files["mat"].write_text(REFERENCE_MATRIX)
    files["listed"].write_text("[1, 2]\n")
    files["deep"].write_text("[" * 200000)
    assert main([a.format(**files) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is not None:
        assert len(err.splitlines()) == 1
        assert err.startswith("guard violation: " if code == 2 else "error: ")
        assert message in err


@pytest.mark.parametrize("argv", [
    ["closed-form", "--i", "3", "--n", "200000"],
    ["circuits-census", "--n", "200000"],
])
@pytest.mark.parametrize("unlimited", ["limit 0", "no limit function"])
def test_printable_guard_holds_without_an_interpreter_limit(monkeypatch, capsys, argv, unlimited):
    # An interpreter with no int-print limit (PYTHONINTMAXSTRDIGITS=0, or
    # Python 3.10) still refuses before the work, at CPython's default 4300.
    if unlimited == "limit 0":
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    else:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than 4300 decimal digits" in err


def test_embed_self_check_failure_exits_three(tmp_path, monkeypatch, capsys):
    from resonance import universality

    # Level sets of the doubled column cannot reconstruct the column.
    exact = universality._level_sets
    monkeypatch.setattr(universality, "_level_sets", lambda col: exact([2 * x for x in col]))
    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    assert main(["embed", "--input", str(mat)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("internal invariant failure: ")


def test_wrong_chi_exits_three(monkeypatch, capsys):
    # q^n points at every prime interpolate to t^n, which fails CharPoly's checks.
    monkeypatch.setattr(arrangement, "count_points_avoiding", lambda n, q: q**n)
    assert main(["charpoly", "--n", "3"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "internal invariant failure: t^(n-1) coefficient must have absolute value 2^n - 1"
    ]


def _stirling_off_at_four(monkeypatch):
    exact = stirling.stirling2

    def wrong(n, k):
        return exact(n, k) + (k == 4)

    # Every closed form, the circuit counts included, reads stirling2 here.
    monkeypatch.setattr(stirling, "stirling2", wrong)


def _indivisible_census(monkeypatch):
    monkeypatch.setattr(prototypes, "_functional_counts", lambda i: ((i + 1, 1),))


def _census_off_the_closed_form(monkeypatch):
    # Divisible by i!, so only the comparison with the closed form refuses it.
    monkeypatch.setattr(prototypes, "_functional_counts", lambda i: ((i + 1, factorial(i)),))


# A corrupted input to each self-check: the library call raises
# InternalCheckError naming the formula, and the command exits 3.
SELF_CHECKS = {
    "betti2": (_stirling_off_at_four, lambda: stirling.betti2_closed(3),
               "betti2 expressions disagree", ["closed-form", "--i", "2", "--n", "3"]),
    "betti3": (_stirling_off_at_four, lambda: stirling.betti3_closed(3),
               "betti3 expressions disagree", ["closed-form", "--i", "3", "--n", "3"]),
    "triples": (_stirling_off_at_four, lambda: stirling.closed_form("intersecting_triples", 3),
                "intersecting_triples expressions disagree", ["circuits-census", "--n", "3"]),
    "prototypes": (_indivisible_census, lambda: prototypes.coefficients(2),
                   "not divisible by 2!", ["prototypes", "--i", "2"]),
    "prototypes-closed-form": (_census_off_the_closed_form, lambda: prototypes.coefficients(2),
                               "the closed form b_2 has", ["prototypes", "--i", "2"]),
}


@pytest.mark.parametrize("case", SELF_CHECKS)
def test_self_checks_raise(monkeypatch, capsys, case):
    corrupt, call, message, argv = SELF_CHECKS[case]
    corrupt(monkeypatch)
    with pytest.raises(InternalCheckError, match=message):
        call()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("internal invariant failure: ") and message in err


@pytest.mark.parametrize("argv", [
    ["charpoly", "--n", "9"],
    ["regions", "--n", "9", "--method", "nbc"],
    ["regions", "--n", "9", "--method", "whitney"],
    ["betti", "--n", "9", "--i-max", "2"],
    ["charpoly", "--n", "2", "--primes", "3,5,1000000000000000003"],
    ["embed", "--input", "{loop}"],  # ambient dimension 401, past the guard
])
def test_range_is_checked_before_the_guard(tmp_path, capsys, argv):
    # An input no run can serve exits 1 whether or not the guards are lifted.
    loop = tmp_path / "loop.mat"
    loop.write_text("1 2\n200 0\n")
    argv = [a.format(loop=loop) for a in argv]
    errs = []
    for extra in ([], ["--guard-override"]):
        assert main(argv + extra) == 1
        errs.append(capsys.readouterr().err)
    assert len(errs[0].splitlines()) == 1 and errs[0].startswith("error: ")
    assert errs[0] == errs[1]


def test_guard_override_allows_expensive_run(capsys):
    assert main(["betti", "--n", "8", "--i-max", "2"]) == 2
    capsys.readouterr()
    code, out = run_cli(
        capsys, "betti", "--n", "8", "--i-max", "2", "--guard-override", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["betti"] == ["1", "255", "29360"]


def test_embed_ambient_guard(tmp_path, capsys):
    wide = tmp_path / "wide.mat"
    wide.write_text("1 1\n128\n")  # ambient dimension 1 + 2 * 128 = 257
    empty = tmp_path / "empty.json"
    empty.write_text("{}\n")
    assert main(["embed", "--input", str(wide)]) == 2
    assert main(["verify-embed", "--input", str(wide), "--cert", str(empty)]) == 2
    capsys.readouterr()
    code, out = run_cli(capsys, "embed", "--input", str(wide), "--guard-override", "--format", "json")
    assert code == 0
    assert json.loads(out)["ambient_dim"] == 257


def test_closed_stdout_exits_1_without_a_traceback():
    # The pipe's read end is closed before the command starts, so its
    # first write to stdout fails with EPIPE.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "resonance.cli", "closed-form", "--i", "3", "--n", "9",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == b""


def test_json_output_round_trips(tmp_path, capsys):
    written = tmp_path / "chi.json"
    code, out = run_cli(
        capsys, "charpoly", "--n", "2", "--format", "json", "--output", str(written)
    )
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")
    assert written.read_text() == out


def test_thread_count_does_not_change_output(capsys):
    # Fewer than two workers, 0 and negative counts included, run in-process.
    argv = ["betti", "--n", "5", "--i-max", "3", "--format", "json"]
    _, one = run_cli(capsys, *argv)
    for threads in ("4", "0", "-3"):
        assert run_cli(capsys, *argv, "--threads", threads) == (0, one)


def test_ff_worker_count_does_not_change_output(capsys):
    argv = ["charpoly", "--n", "5", "--method", "ff", "--format", "json"]
    _, one = run_cli(capsys, *argv, "--threads", "1")
    assert json.loads(one)["method"] == "ff"
    for threads in ("2", "0", "-3"):
        assert run_cli(capsys, *argv, "--threads", threads) == (0, one)


def test_table1_report_small():
    report = build_report(4, 4)
    assert report["mismatches"] == 0
    matched = [c for c in report["cells"] if c["status"] == "MATCH"]
    assert len(matched) == 20  # 16 Betti cells plus 4 region cells


@pytest.mark.parametrize("n_max, i_max, message", [
    (0, 1, "n_max must be in 1..9"),
    (10, 1, "n_max must be in 1..9"),
    (1, 0, "i_max must be in 1..4"),
    (1, 5, "i_max must be in 1..4"),
])
def test_table1_report_refuses_sizes_outside_the_table(n_max, i_max, message):
    with pytest.raises(ValueError, match=message):
        build_report(n_max, i_max)


def test_table1_cli(capsys):
    code, out = run_cli(capsys, "table1", "--n-max", "3", "--i-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    statuses = {c["status"] for c in payload["cells"]}
    assert statuses == {"MATCH"}


def test_charpoly_custom_primes(capsys):
    code, out = run_cli(
        capsys, "charpoly", "--n", "3", "--method", "ff",
        "--primes", "17,19,23,29", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "-7", "15", "-9"]


def test_golden_mismatch_exits_three(monkeypatch, capsys):
    from resonance import table1 as t1

    monkeypatch.setitem(t1.GOLDEN_BETTI[2], 3, 14)  # wrong on purpose
    assert main(["table1", "--n-max", "3", "--i-max", "2"]) == 3
    capsys.readouterr()


def test_table1_region_routes_must_agree_on_chi(monkeypatch):
    from resonance import table1 as t1

    exact = t1.whitney_charpoly
    # Same region count 370 and chi(1) = 0 as chi(A_4), other Betti numbers.
    off = CharPoly.from_betti((1, 15, 81, 170, 103))
    monkeypatch.setattr(t1, "whitney_charpoly", lambda n: off if n == 4 else exact(n))
    assert build_report(3, 1)["mismatches"] == 0
    with pytest.raises(InternalCheckError, match="chi\\(A_4\\) differs"):
        build_report(4, 1)


def test_table1_region_row_through_six(capsys):
    code, out = run_cli(capsys, "table1", "--n-max", "6", "--i-max", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    regions = {c["n"]: c for c in payload["cells"] if c["row"] == "R"}
    assert regions[5]["computed"] == "11292" and regions[5]["status"] == "MATCH"
    assert regions[6]["computed"] == "1066044" and regions[6]["status"] == "MATCH"
    # Every route runs through n = 6, each named so that --method reruns it.
    assert {c["method"] for c in regions.values()} == {"nbc + ff + whitney"}
    for method in regions[6]["method"].split(" + "):
        code, out = run_cli(capsys, "regions", "--n", "2", "--method", method, "--format", "json")
        assert code == 0 and json.loads(out)["regions"] == "6"


def test_table1_depth_limited_row(capsys):
    # Two workers: the pooled point count, and half the time of the serial one
    # that test_finite_field_a7_matches_golden_values already runs.
    code, out = run_cli(capsys, "table1", "--n-max", "7", "--i-max", "3", "--threads", "2",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    cell = next(c for c in payload["cells"] if c["row"] == "b3" and c["n"] == 7)
    assert cell["status"] == "MATCH" and cell["computed"] == "215439"
    r7 = next(c for c in payload["cells"] if c["row"] == "R" and c["n"] == 7)
    assert r7["status"] == "MATCH" and r7["computed"] == "347326352"
    assert r7["method"] == "ff"  # full-depth NBC is guarded at n=7


def test_table1_guards_refuse_n9_cells():
    # No route reaches n = 9, so these cells do no work; the guards refuse n = 8.
    assert table1._compute_regions(9, 1) == (None, "no route reaches n=9")
    assert table1._compute_betti(4, 9, 1) == (None, "no route reaches n=9")
    assert table1._compute_regions(8, 1) == (None, "needs long run")
