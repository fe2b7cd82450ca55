import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rookmonoids.cli import EXIT_BUDGET, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_elements_text(capsys):
    code, out, _ = run_cli(capsys, "elements", "--family", "or", "--n", "4")
    assert code == EXIT_OK
    assert "OR_4: 37 elements" in out
    assert "rank 2: 16" in out


def test_elements_json(capsys):
    code, out, _ = run_cli(capsys, "elements", "--family", "sr", "--n", "4",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["size"] == 57
    assert len(payload["elements"]) == 57


def test_elements_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "elements", "--family", "r", "--n", "8")
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_elements_rejects_odd_degree(capsys):
    code, _, err = run_cli(capsys, "elements", "--n", "3")
    assert code == EXIT_BUDGET
    assert "even" in err


def test_green_counts(capsys):
    code, out, _ = run_cli(capsys, "green", "--family", "or", "--n", "4")
    assert code == EXIT_OK
    assert "J-classes: 5" in out
    code, out, _ = run_cli(capsys, "green", "--family", "or", "--n", "6")
    assert "H-classes: 214" in out


def test_green_json_reports_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "green", "--family", "or", "--n", "4",
                           "--format", "json")
    payload = json.loads(out)
    kinds = [d["kind"] for d in payload["discrepancies"]]
    assert kinds == ["rank_m_d_class_size"]
    assert payload["formulas"]["j_class_count"] == 5


def test_green_dot(capsys):
    code, out, _ = run_cli(capsys, "green", "--family", "or", "--n", "4",
                           "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph j_order")


def test_ideals(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--family", "or", "--n", "4")
    assert code == EXIT_OK
    assert "6 absorbing down-sets" in out
    assert "union" in out


def test_congruences_predict(capsys):
    code, out, _ = run_cli(capsys, "congruences", "predict", "--family", "or",
                           "--n", "4")
    assert code == EXIT_OK
    assert "12 distinct predicted congruences" in out
    assert "OR_eq1" in out


def test_degree_8_predictions_and_ideals_need_no_table(capsys):
    code, out, _ = run_cli(capsys, "congruences", "predict", "--family", "or",
                           "--n", "8")
    assert code == EXIT_OK
    assert "OR_8: 31 distinct predicted congruences" in out
    code, out, _ = run_cli(capsys, "congruences", "predict", "--family", "sr",
                           "--n", "8")
    assert code == EXIT_OK
    assert "SR_8: 22 distinct predicted congruences" in out
    for family, count in (("or", 8), ("sr", 6)):
        code, out, _ = run_cli(capsys, "ideals", "--family", family, "--n", "8")
        assert code == EXIT_OK
        assert f"{family.upper()}_8: {count} absorbing down-sets" in out


def test_congruences_enumerate(capsys):
    code, out, _ = run_cli(capsys, "congruences", "enumerate", "--family", "or",
                           "--n", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 7


def test_congruences_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "congruences", "verify", "--family", "sr",
                           "--n", "2")
    assert code == EXIT_OK
    assert "predicted but not found: 0" in out
    code, out, _ = run_cli(capsys, "congruences", "verify", "--family", "or",
                           "--n", "4")
    assert code == EXIT_OK
    assert "found but not predicted: 5" in out


def test_congruences_verify_budget(capsys, monkeypatch):
    """Degree 10 is refused on the element budget, the one refusal, before
    any stratum is built."""
    import rookmonoids.core as core

    def boom(*args):
        raise AssertionError("a stratum was built")

    monkeypatch.setattr(core, "_stratum", boom)
    for verb, family in (("verify", "or"), ("enumerate", "sr")):
        code, out, err = run_cli(capsys, "congruences", verb, "--family", family, "--n", "10")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err.startswith(f"budget refusal: {family.upper()}_10 has ")
        assert "RCL_BUDGET_ELEMENTS" in err


def test_verify_family_r_refuses_before_the_lattice(capsys, monkeypatch):
    """R has no predicted families: verify says so before it builds the
    lattice."""
    import rookmonoids.families as families

    def boom(universe, **kwargs):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(families, "congruence_lattice", boom)
    for n in ("4", "6"):
        code, out, err = run_cli(capsys, "congruences", "verify", "--family", "r", "--n", n)
        assert (code, out, err) == (EXIT_BUDGET, "", "error: no predicted families for family R\n")


@pytest.mark.parametrize("family, digest", [
    ("or", "b9e11962b61414de594326edf4a1c7eebc97bcf1bc9823a3183253557f35cf2b"),
    ("sr", "87c3afd97cc465ab1e44a5a304ad8b75ee78cde7e295d90a3ae9f706eca7a0a3"),
])
def test_degree_6_verify_json_is_pinned(capsys, family, digest):
    """The sha256 of the degree-6 classification reports, as recorded
    before the lattice engine closed seeds in row blocks."""
    code, out, _ = run_cli(capsys, "congruences", "verify", "--family", family,
                           "--n", "6", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, n, digest", [
    ("or", "6", "145fba910d5a46bff3732e51c210b248c80aae350ce3cf6193b821367bcf899f"),
    ("or", "8", "12e4d2d23dba71499887676b01e48005c4960e09563e488430139192a513eb90"),
    ("sr", "6", "611094c5c5778a370cc21b31282160a17a96b61e6bc972f21efa7e239783b0a3"),
    ("sr", "8", "190d117c037a54edc6275b050093180043390a0e3179cb84f448616d29fc5099"),
])
def test_predictions_json_is_pinned(capsys, family, n, digest):
    """The sha256 of the predicted families at degrees 6 and 8, as recorded
    when the family builder keyed cosets by the least image code."""
    code, out, _ = run_cli(capsys, "congruences", "predict", "--family", family,
                           "--n", n, "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, counts, digest", [
    ("or", (39, 31, 0, 8), "4c84855702fe0f702b37d1426c788cc752233d7de97494b7c47da9e9b7a8714e"),
    ("sr", (22, 22, 0, 0), "4b37fdca40d59839ec72b65a39bbf3511912daf6412176db88fd95565d79d6cd"),
], ids=["or", "sr"])
def test_degree_8_verify_json_is_pinned(capsys, family, counts, digest):
    """The degree-8 classification reports: lattice size, matched,
    predicted but not found, and found but not predicted, and the sha256
    of the JSON, the OR_8 one as recorded with the G×G orbit seeds."""
    code, out, _ = run_cli(capsys, "congruences", "verify", "--family", family,
                           "--n", "8", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["lattice_size"], len(payload["matched"]), len(payload["predicted_not_found"]),
            len(payload["found_not_predicted"])) == counts
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lattice_of_r6(capsys):
    """R_6, 13,327 elements with the unit group S_6, has 17 congruences."""
    code, out, _ = run_cli(capsys, "congruences", "enumerate", "--family", "r",
                           "--n", "6", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 17


def test_counterexample(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == EXIT_OK
    assert "membership violated at i = 1" in out
    assert "sigma in OR_8: True" in out
    assert "conjugate in SR_8: False" in out


def test_counterexample_json(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--format", "json")
    payload = json.loads(out)
    assert payload["violated_at"] == 1
    assert payload["sigma_in_OR"] is True
    assert payload["conjugate_in_SR"] is False
    assert payload["s_in_unit_group"] is False


def test_erratum(capsys):
    code, out, _ = run_cli(capsys, "erratum", "--n", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rank_m_d_class_size"]["observed_per_class"] == [8, 8]
    assert len(payload["extra_absorbing_downsets"]) == 1


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "universe.json"
    code, out, _ = run_cli(capsys, "elements", "--family", "or", "--n", "2",
                           "--format", "json", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["size"] == 4


@pytest.mark.parametrize("argv", [
    ("elements", "--family", "or", "--n", "4", "--format", "json"),
    ("green", "--family", "or", "--n", "4", "--format", "json"),
    ("congruences", "verify", "--family", "or", "--n", "4", "--format", "json"),
])
def test_output_is_deterministic(capsys, argv):
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_element_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RCL_BUDGET_ELEMENTS", "30")
    code, _, err = run_cli(capsys, "elements", "--family", "or", "--n", "4")
    assert code == EXIT_BUDGET
    assert "budget" in err
    monkeypatch.setenv("RCL_BUDGET_ELEMENTS", "40")
    code, out, _ = run_cli(capsys, "elements", "--family", "or", "--n", "4")
    assert code == EXIT_OK
    for value in ("abc", "-5"):
        monkeypatch.setenv("RCL_BUDGET_ELEMENTS", value)
        code, out, err = run_cli(capsys, "elements", "--family", "or", "--n", "2")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == f"error: RCL_BUDGET_ELEMENTS must be a non-negative integer, got '{value}'\n"


def test_internal_invariant_exit_code(capsys, monkeypatch):
    from rookmonoids import InvariantViolation
    import rookmonoids.cli as cli

    def boom(universe, **kwargs):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli, "verify_classification", boom)
    code, _, err = run_cli(capsys, "congruences", "verify", "--family", "or",
                           "--n", "2")
    assert code == 3
    assert "invariant" in err


@pytest.mark.parametrize("argv", [
    ("elements", "--force-budget"),
    ("ideals", "--format", "dot"),
    ("congruences", "predict", "--force-budget"),
    ("congruences", "verify", "--format", "dot"),
    ("erratum", "--family", "sr"),
    ("counterexample", "--family", "or"),
    ("congruences", "verify", "--force-budget"),
    ("congruences", "enumerate", "--force-budget"),
])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice: 'dot'" in err


def test_verify_and_principal_ideals_leave_numpy_ma_unloaded(tmp_path):
    """A bare np.unique imports numpy.ma on first use (numpy 2.4)."""
    script = f"""
import sys
from rookmonoids import enumerate_universe, principal_left, principal_right, principal_twosided
from rookmonoids.cli import main
assert main(["congruences", "verify", "--family", "or", "--n", "4",
             "--out", {str(tmp_path / "verify.txt")!r}]) == 0
or4 = enumerate_universe("OR", 4)
for principal in (principal_right, principal_left, principal_twosided):
    principal(or4, 19)
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "False\n"
