import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rookmonoids.cli import EXIT_BUDGET, EXIT_OK, build_parser, main
from rookmonoids.core import element_limit


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
    for command in ("elements", "counterexample", "erratum"):
        code, out, err = run_cli(capsys, command, "--n", "3")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: degree must be an even integer >= 2, got 3\n"


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


def test_verify_family_r_matches_every_congruence(capsys):
    """R has Liber's rank families: every congruence of R_2, R_4 and R_6
    is predicted, and every prediction is found."""
    for n, size in (("2", 4), ("4", 11), ("6", 17)):
        code, out, err = run_cli(capsys, "congruences", "verify", "--family", "r",
                                 "--n", n, "--format", "json")
        payload = json.loads(out)
        assert (code, err) == (EXIT_OK, "")
        assert payload["lattice_size"] == len(payload["matched"]) == size
        assert payload["predicted_not_found"] == payload["found_not_predicted"] == []


@pytest.mark.parametrize("family, digest", [
    ("or", "b9e11962b61414de594326edf4a1c7eebc97bcf1bc9823a3183253557f35cf2b"),
    ("sr", "662d48cde4bfff317da0705e1eb3a5a6316dd4fbd9d80589a936d1fb6c0ffb54"),
    ("r", "63eb536a926d7d7f4010849a9cbae10f8f2188b7e1caa57fefe134a8a5b65d94"),
])
def test_degree_6_verify_json_is_pinned(capsys, family, digest):
    """The sha256 of the degree-6 classification reports: the OR one as
    recorded before the lattice engine closed seeds in row blocks, the SR
    and R ones since OR's typed-families note left their reports."""
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
    ("sr", (22, 22, 0, 0), "560a402a4cc8c818015ae8ee3942c2b03d488f51e2aec7d89487a910bb21c6b5"),
], ids=["or", "sr"])
def test_degree_8_verify_json_is_pinned(capsys, family, counts, digest):
    """The degree-8 classification reports: lattice size, matched,
    predicted but not found, and found but not predicted, and the sha256
    of the JSON, the OR_8 one as recorded with the G×G orbit seeds, the
    SR_8 one since OR's typed-families note left SR's report."""
    code, out, _ = run_cli(capsys, "congruences", "verify", "--family", family,
                           "--n", "8", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["lattice_size"], len(payload["matched"]), len(payload["predicted_not_found"]),
            len(payload["found_not_predicted"])) == counts
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(element_limit() < 322_021,
                    reason="degree 10 needs RCL_BUDGET_ELEMENTS of at least 322,021, the size of SR_10")
@pytest.mark.parametrize("family, counts, digest", [
    ("or", (30, 26, 0, 4), "a482f2ba5f601c5b488628d23845b97ef435208cfb439c1b243bc312c9b2616c"),
    ("sr", (23, 23, 0, 0), "5bad79dc840deeab2b8afeb699fd28d2519f15ca94dbdb2b0868aca056052f6d"),
], ids=["or", "sr"])
def test_degree_10_verify_counts(capsys, family, counts, digest):
    """The degree-10 classification reports: lattice size, matched,
    predicted but not found, and found but not predicted, and the sha256
    of the JSON, as recorded when the units were still filtered from all
    10! permutations."""
    code, out, _ = run_cli(capsys, "congruences", "verify", "--family", family,
                           "--n", "10", "--format", "json")
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


def test_unwritable_output_path_is_an_argument_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "elements.json"
    code, out, err = run_cli(capsys, "elements", "--n", "2", "--out", str(missing))
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("elements", "--family", "or", "--n", "4", "--format", "json"),
    ("green", "--family", "or", "--n", "4", "--format", "json"),
    ("congruences", "verify", "--family", "or", "--n", "4", "--format", "json"),
])
def test_output_is_deterministic(capsys, argv):
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def outcome(capsys, *argv):
    """Exit code, stdout and stderr of one ``main`` call, argparse's exits too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_cached_parser_answers_as_a_fresh_one(capsys):
    """``main`` builds its parser once per process: after an argparse exit,
    and after another subcommand, each call answers as a first call does."""
    calls = [
        ("congruences", "verify", "--n", "4", "--format", "json"),
        ("congruences", "verify", "--n", "4", "--format", "dot"),
        ("elements", "--family", "sr", "--n", "2"),
        ("--help",),
        ("congruences", "predict", "--n", "3"),
    ]
    firsts = []
    for argv in calls:
        build_parser.cache_clear()
        firsts.append(outcome(capsys, *argv))
    assert [code for code, _, _ in firsts] == [EXIT_OK, EXIT_BUDGET, EXIT_OK, EXIT_OK, EXIT_BUDGET]
    for order in (calls, calls[::-1]):
        assert [outcome(capsys, *argv) for argv in order] == [
            firsts[calls.index(argv)] for argv in order]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("family, verb, digest", [
    ("or", "verify", "1ddd34a376ba9900853044e8e20c82d60d37a04c1cb7e9741e661caa9a04fce5"),
    ("or", "predict", "aa524bb2f08cb6b30a26ba8511b998b1297ad26b346ab3ccdcfab5cb1afd6392"),
    ("sr", "verify", "341aafe57ed8af19a99ec7bcc6c486eef324246e7769663b2496814c19557360"),
    ("sr", "predict", "4dad4bc65952067f80d7cbcd889d2ff331ab1b56276b4db250ebca672602f197"),
    ("r", "verify", "babfff24111da5bf132da6359accb4e0b15e3b76fabc64abc05838cb3f3699f8"),
    ("r", "predict", "85fa3aa2db9f8a5192bd4fc1a24f11a587876c0f8324b37f7410b24a7b4c8964"),
])
def test_degree_4_json_is_pinned(capsys, family, verb, digest):
    """The sha256 of the degree-4 classification reports and predictions,
    as recorded while the OR_4 specials still merged their units in pairs."""
    code, out, _ = run_cli(capsys, "congruences", verb, "--family", family,
                           "--n", "4", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_verify_exits_3_when_a_prediction_is_missing(capsys, monkeypatch):
    """With the identity dropped from the OR_4 lattice, the identity
    prediction, 37 singleton classes, is reported as not found."""
    import rookmonoids.families as families

    lattice = families.congruence_lattice
    monkeypatch.setattr(families, "congruence_lattice",
                        lambda universe: [p for p in lattice(universe) if p.num_classes < len(universe)])
    code, out, err = run_cli(capsys, "congruences", "verify", "--family", "or", "--n", "4",
                             "--format", "json")
    assert code == 3
    assert err == "some predicted congruences are missing from the lattice\n"
    payload = json.loads(out)
    assert payload["lattice_size"] == 16
    assert [entry["num_classes"] for entry in payload["predicted_not_found"]] == [37]


class Built(Exception):
    """Raised by a body builder patched to refuse."""


@pytest.mark.parametrize("argv", [
    ("congruences", "predict", "--family", "or", "--n", "4"),
    ("congruences", "enumerate", "--family", "or", "--n", "4"),
    ("elements", "--family", "sr", "--n", "4"),
])
def test_text_builds_neither_the_json_nor_the_dot_body(capsys, monkeypatch, argv):
    """Text asks for no JSON payload and no DOT: with their builders
    patched to raise, text runs give the same bytes, and JSON and DOT runs
    reach the builders."""
    import rookmonoids.cli as cli
    from rookmonoids import Partition

    expected = run_cli(capsys, *argv)
    assert expected[0] == EXIT_OK

    def refuse(*args):
        raise Built

    for owner, name in ((Partition, "classes"), (cli, "universe_to_json"), (cli, "lattice_to_dot")):
        monkeypatch.setattr(owner, name, refuse)
    assert run_cli(capsys, *argv) == expected
    formats = ("json", "dot") if argv[1] == "enumerate" else ("json",)
    for fmt in formats:
        with pytest.raises(Built):
            main([*argv, "--format", fmt])


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
from oracles import principal_left, principal_right, principal_twosided
from rookmonoids import enumerate_universe
from rookmonoids.cli import main
assert main(["congruences", "verify", "--family", "or", "--n", "4",
             "--out", {str(tmp_path / "verify.txt")!r}]) == 0
or4 = enumerate_universe("OR", 4)
for principal in (principal_right, principal_left, principal_twosided):
    principal(or4, 19)
print("numpy.ma" in sys.modules)
"""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "False\n"
