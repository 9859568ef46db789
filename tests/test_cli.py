import json

import pytest

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
    for method in ("whitney", "ff", "nbc"):
        code, out = run_cli(
            capsys, "charpoly", "--n", "3", "--method", method, "--format", "json"
        )
        assert code == 0
        outputs.append(json.loads(out)["coeffs"])
    assert outputs[0] == outputs[1] == outputs[2]


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
        "R(A_1): golden=2 computed=2 [MATCH; nbc full depth + ff + deletion/restriction]\n"
        "R(A_2): golden=6 computed=6 [MATCH; nbc full depth + ff + deletion/restriction]\n"
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
    "guard": (["charpoly", "--n", "9"], 2, "n capped at 7"),
    "huge-prime": (
        ["charpoly", "--n", "2", "--method", "ff", "--primes", "3,5,1000000000000000003"],
        2,
        "point-count work capped at",
    ),
    "closed-form-i4": (["closed-form", "--i", "4", "--n", "3"], 1, "i in {1, 2, 3}"),
    "missing-file": (["embed", "--input", "{missing}"], 1, "No such file"),
    "bad-primes": (["charpoly", "--n", "3", "--method", "ff", "--primes", "x,y"], 1, "'x'"),
    "primes-whitney": (
        ["charpoly", "--n", "3", "--method", "whitney", "--primes", "5,7,11,13"],
        1,
        "--primes applies only to --method ff",
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
    "betti-i-max": (["betti", "--n", "3", "--i-max", "-1"], 1, "i_max=-1"),
    "prototypes-i": (["prototypes", "--i", "-1"], 1, "i=-1"),
    "fit-coeffs-i": (["fit-coeffs", "--i", "-1"], 1, "i=-1"),
    "fit-coeffs-40": (["fit-coeffs", "--i", "40"], 1, "up to n="),  # no golden row
    "fit-coeffs-20000": (["fit-coeffs", "--i", "20000"], 1, "golden Betti values"),
    "betti-n0": (["betti", "--n", "0"], 1, "n must be positive"),
    "betti-n64": (["betti", "--n", "64", "--i-max", "1", "--guard-override"], 1, "at most 63"),
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
    }
    files["zero"].write_text("1 2\n1 1/0\n")
    files["exponent"].write_text("1 1\n1e10000000\n")
    files["huge"].write_text("3 1\n" + "".join(f"1/{10**3000 + k}\n" for k in (1, 3, 7)))
    files["mat"].write_text(REFERENCE_MATRIX)
    files["listed"].write_text("[1, 2]\n")
    assert main([a.format(**files) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is not None:
        assert len(err.splitlines()) == 1
        assert err.startswith("guard violation: " if code == 2 else "error: ")
        assert message in err


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
    _, one = run_cli(capsys, "betti", "--n", "5", "--i-max", "3", "--format", "json")
    _, four = run_cli(
        capsys, "betti", "--n", "5", "--i-max", "3", "--threads", "4", "--format", "json"
    )
    assert one == four


def test_ff_worker_count_does_not_change_output(capsys):
    argv = ["charpoly", "--n", "5", "--method", "ff", "--format", "json"]
    _, one = run_cli(capsys, *argv, "--threads", "1")
    _, two = run_cli(capsys, *argv, "--threads", "2")
    assert json.loads(one)["method"] == "ff"
    assert one == two


def test_table1_report_small():
    report = build_report(4, 4)
    assert report["mismatches"] == 0
    matched = [c for c in report["cells"] if c["status"] == "MATCH"]
    assert len(matched) == 20  # 16 Betti cells plus 4 region cells


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
    # Same region count 32 as chi(A_3), other Betti numbers.
    off = CharPoly.from_betti((1, 7, 14, 10))
    monkeypatch.setattr(t1, "whitney_charpoly", lambda n: off if n == 3 else exact(n))
    assert build_report(2, 1)["mismatches"] == 0
    with pytest.raises(InternalCheckError, match="chi\\(A_3\\) differs"):
        build_report(3, 1)


def test_table1_region_row_through_six(capsys):
    code, out = run_cli(capsys, "table1", "--n-max", "6", "--i-max", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    regions = {c["n"]: c for c in payload["cells"] if c["row"] == "R"}
    assert regions[5]["computed"] == "11292" and regions[5]["status"] == "MATCH"
    assert regions[6]["computed"] == "1066044" and regions[6]["status"] == "MATCH"


def test_table1_depth_limited_row(capsys):
    code, out = run_cli(capsys, "table1", "--n-max", "7", "--i-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    cell = next(c for c in payload["cells"] if c["row"] == "b3" and c["n"] == 7)
    assert cell["status"] == "MATCH" and cell["computed"] == "215439"
    r7 = next(c for c in payload["cells"] if c["row"] == "R" and c["n"] == 7)
    assert r7["status"] == "MATCH" and r7["computed"] == "347326352"
    assert r7["method"] == "ff"  # full-depth NBC is guarded at n=7
