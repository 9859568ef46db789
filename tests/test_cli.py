import json

from resonance.cli import main
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
    code, out = run_cli(capsys, "regions", "--n", "3", "--method", "chambers", "--format", "json")
    assert code == 0
    assert json.loads(out)["regions"] == "32"


def test_betti_depth_limited(capsys):
    code, out = run_cli(capsys, "betti", "--n", "7", "--i-max", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == ["1", "127", "7035", "215439"]


def test_closed_form(capsys):
    code, out = run_cli(capsys, "closed-form", "--i", "3", "--n", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "17153460"


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


def test_exit_codes(tmp_path, capsys):
    assert main(["charpoly", "--badflag"]) == 1
    assert main(["charpoly", "--n", "9"]) == 2       # guard
    assert main(["closed-form", "--i", "4", "--n", "3"]) == 1
    missing = tmp_path / "missing.mat"
    assert main(["embed", "--input", str(missing)]) == 1
    assert main(["charpoly", "--n", "3", "--method", "ff", "--primes", "x,y"]) == 1
    zero_den = tmp_path / "zero.mat"
    zero_den.write_text("1 2\n1 1/0\n")
    assert main(["embed", "--input", str(zero_den)]) == 1
    mat = tmp_path / "a.mat"
    mat.write_text(REFERENCE_MATRIX)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]\n")
    assert main(["verify-embed", "--input", str(mat), "--cert", str(listed)]) == 1
    assert main(["betti", "--n", "3", "--i-max", "-1"]) == 1
    assert main(["prototypes", "--i", "-1"]) == 1
    assert main(["fit-coeffs", "--i", "-1"]) == 1
    assert main(["fit-coeffs", "--i", "40"]) == 1     # no golden row: fails at n=1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(line.startswith("error: ") for line in err.splitlines()[-8:])
    assert "i_max=-1" in err and "i=-1" in err


def test_guard_override_allows_expensive_run(capsys):
    assert main(["betti", "--n", "8", "--i-max", "2"]) == 2
    capsys.readouterr()
    code, out = run_cli(
        capsys, "betti", "--n", "8", "--i-max", "2", "--guard-override", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["betti"] == ["1", "255", "29360"]


def test_json_output_round_trips(capsys):
    code, out = run_cli(capsys, "charpoly", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


def test_thread_count_does_not_change_output(capsys):
    _, one = run_cli(capsys, "betti", "--n", "5", "--i-max", "3", "--format", "json")
    _, four = run_cli(
        capsys, "betti", "--n", "5", "--i-max", "3", "--threads", "4", "--format", "json"
    )
    assert one == four


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
    assert r7["status"] == "SKIPPED"
