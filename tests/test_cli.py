import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from slword import (
    GF,
    QQ,
    GeneratingSet,
    SLMatrix,
    certificate_to_json,
    decompose,
    decompose_as_conjugates_of,
    elementary,
    find_regular_in_ball,
    matrix_from_json,
    matrix_to_json,
    substitute_certificate,
)
from slword.cli import _dumps, main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def target_file(tmp_path):
    return write_json(tmp_path / "g.json", matrix_to_json(SLMatrix(QQ, [[1, 2], [1, 3]])))


@pytest.fixture
def generator_file(tmp_path):
    return write_json(tmp_path / "t.json", matrix_to_json(SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])))


@pytest.fixture
def genset_file(tmp_path):
    return write_json(tmp_path / "x.json", [matrix_to_json(SLMatrix.diagonal(QQ, [2, Fraction(1, 2)]))])


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_then_verify_t_mode(tmp_path, target_file, generator_file, capsys):
    out = str(tmp_path / "cert.json")
    code, stdout, stderr = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file,
         "--generator", generator_file, "--seed", "7", "--out", out],
        capsys,
    )
    assert code == 0
    assert "claimed bound 14" in stderr
    cert = json.loads(stdout)
    assert cert["meta"]["length"] <= 14
    assert json.loads(open(out).read()) == cert

    code, _, stderr = run_cli(["verify", out], capsys)
    assert code == 0
    assert "OK" in stderr


def test_certify_then_verify_x_mode(tmp_path, target_file, genset_file, capsys):
    out = str(tmp_path / "cert.json")
    code, stdout, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file,
         "--genset", genset_file, "--seed", "3", "--out", out],
        capsys,
    )
    assert code == 0
    cert = json.loads(stdout)
    assert cert["meta"]["bound_claimed"] == 56
    assert cert["meta"]["length"] <= 56
    assert run_cli(["verify", out], capsys)[0] == 0


def test_verify_detects_mutation(tmp_path, target_file, generator_file, capsys):
    out = str(tmp_path / "cert.json")
    run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file,
         "--generator", generator_file, "--seed", "7", "--out", out],
        capsys,
    )
    cert = json.loads(open(out).read())
    # add 99 times row 2 to row 1 of a conjugator: still determinant 1, so
    # the certificate parses and only the product can expose it
    rows = cert["word"][0]["conjugator"]["entries"]
    rows[0] = [str(Fraction(a) + 99 * Fraction(b)) for a, b in zip(rows[0], rows[1])]
    mutated = write_json(tmp_path / "bad.json", cert)
    code, stdout, stderr = run_cli(["verify", mutated], capsys)
    assert code == 1
    assert "recomputed_product" in stdout
    assert "MISMATCH" in stderr


def test_verify_malformed_is_exit_3(tmp_path, capsys):
    bad = write_json(tmp_path / "junk.json", {"field": {"kind": "Q"}})
    assert run_cli(["verify", bad], capsys)[0] == 3


def test_verify_meta_not_an_object_is_exit_3(tmp_path, target_file, generator_file, capsys):
    out = str(tmp_path / "cert.json")
    run_cli(["certify", "--field", "Q", "--n", "2", "--target", target_file,
             "--generator", generator_file, "--out", out], capsys)
    cert = json.loads(open(out).read())
    cert["meta"] = [1]
    code, _, stderr = run_cli(["verify", write_json(tmp_path / "bad.json", cert)], capsys)
    assert code == 3
    assert stderr.startswith("error:") and "meta" in stderr


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("where", ["target", "base", "conjugator"])
def test_verify_rejects_a_matrix_of_determinant_not_1(tmp_path, capsys, field, where):
    # products and inverses are not re-checked, so every matrix a certificate
    # brings in must be checked where it is parsed: exit 3, not 0 or 1
    field_arg = "Q" if field.p is None else f"Fp:{field.p}"
    tgt = write_json(tmp_path / "g.json", matrix_to_json(SLMatrix(field, [[1, 2], [1, 3]])))
    xs = write_json(tmp_path / "x.json", [matrix_to_json(SLMatrix.diagonal(field, [2, field.one / 2]))])
    out = str(tmp_path / "cert.json")
    code, _, _ = run_cli(["certify", "--field", field_arg, "--n", "2", "--target", tgt,
                          "--genset", xs, "--seed", "1", "--out", out], capsys)
    assert code == 0
    cert = json.loads(open(out).read())
    m = {"target": cert["target"], "base": cert["base"][0],
         "conjugator": cert["word"][0]["conjugator"]}[where]
    m["entries"][0] = [str(2 * Fraction(e)) for e in m["entries"][0]]  # determinant 2
    code, stdout, stderr = run_cli(["verify", write_json(tmp_path / "bad.json", cert)], capsys)
    assert code == 3
    assert stdout == ""
    assert "determinant must be 1" in stderr


@pytest.mark.parametrize("genset", [5, {"matrices": 5}], ids=["number", "matrices-number"])
def test_certify_genset_not_a_list_is_exit_3(tmp_path, target_file, capsys, genset):
    code, _, stderr = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file,
         "--genset", write_json(tmp_path / "x.json", genset)],
        capsys,
    )
    assert code == 3
    assert stderr.startswith("error:") and "Traceback" not in stderr


def test_certify_identity_target_is_empty_certificate(tmp_path, generator_file, capsys):
    ident = write_json(tmp_path / "i.json", matrix_to_json(SLMatrix.identity(QQ, 2)))
    out = str(tmp_path / "cert.json")
    code, stdout, stderr = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", ident,
         "--generator", generator_file, "--out", out],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["meta"]["length"] == 0
    assert "length 0" in stderr
    assert run_cli(["verify", out], capsys)[0] == 0


def test_certify_accepts_dict_form_genset(tmp_path, target_file, capsys):
    xs = write_json(
        tmp_path / "xs.json",
        {"matrices": [matrix_to_json(SLMatrix.diagonal(QQ, [2, Fraction(1, 2)]))]},
    )
    code, stdout, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file,
         "--genset", xs, "--seed", "4"],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["meta"]["length"] <= 56


def test_certify_empty_genset_is_exit_3(tmp_path, target_file, capsys):
    empty = write_json(tmp_path / "empty.json", [])
    code, _, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--genset", empty],
        capsys,
    )
    assert code == 3


def test_oracle_rejects_unknown_class_index(capsys):
    code, _, _ = run_cli(
        ["oracle", "diameter", "--n", "2", "--p", "3", "--classes", "42"], capsys
    )
    assert code == 3


def test_certify_rejects_bad_inputs(tmp_path, target_file, generator_file, capsys):
    # non-determinant-1 target
    nd = write_json(
        tmp_path / "nd.json",
        {"n": 2, "field": {"kind": "Q"}, "entries": [["2", "0"], ["0", "1"]]},
    )
    code, _, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", nd, "--generator", generator_file],
        capsys,
    )
    assert code == 3

    # central generating set
    central = write_json(
        tmp_path / "c.json",
        [matrix_to_json(SLMatrix.diagonal(QQ, [-1, -1]))],
    )
    code, _, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--genset", central],
        capsys,
    )
    assert code == 3

    # repeated eigenvalues in the base element
    rep = write_json(tmp_path / "rep.json", matrix_to_json(elementary(QQ, 2, 1, 2, 1)))
    code, _, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--generator", rep],
        capsys,
    )
    assert code == 3

    # field flag disagrees with the file
    code, _, _ = run_cli(
        ["certify", "--field", "Fp:5", "--n", "2", "--target", target_file,
         "--generator", generator_file],
        capsys,
    )
    assert code == 3


def test_certify_budget_exhaustion_is_exit_2(tmp_path, capsys):
    # one attempt cannot supply the two open-cell samples the regular-element
    # search needs, so it must exhaust its budget whatever the seed
    f5 = {"kind": "Fp", "p": 5}
    tgt = write_json(
        tmp_path / "t5.json", {"n": 2, "field": f5, "entries": [["1", "1"], ["0", "1"]]}
    )
    xs = write_json(
        tmp_path / "x5.json", [{"n": 2, "field": f5, "entries": [["1", "0"], ["1", "1"]]}]
    )
    code, _, stderr = run_cli(
        ["certify", "--field", "Fp:5", "--n", "2", "--target", tgt, "--genset", xs,
         "--budget", "1", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "no hit in 1 attempts" in stderr


def test_budget_exhaustion_names_the_stage_that_spent_it(tmp_path, capsys):
    # open-cell sampling and the distinct-diagonal retry share one budget of
    # samples; with two samples some seeds miss the open cell and others hit
    # it twice with a repeated diagonal, and the message must say which
    f7 = {"kind": "Fp", "p": 7}
    tgt = write_json(
        tmp_path / "t7.json", {"n": 2, "field": f7, "entries": [["1", "1"], ["0", "1"]]}
    )
    xs = write_json(
        tmp_path / "x7.json", [{"n": 2, "field": f7, "entries": [["1", "0"], ["1", "1"]]}]
    )
    stages = set()
    for seed in range(12):
        code, _, stderr = run_cli(
            ["certify", "--field", "Fp:7", "--n", "2", "--target", tgt, "--genset", xs,
             "--budget", "2", "--seed", str(seed)],
            capsys,
        )
        if code == 0:
            continue
        assert code == 2
        assert "no hit in 2 attempts" in stderr
        if stderr.startswith("error: sampling the open Bruhat cell"):
            stages.add("cell")
            assert "missed it" in stderr and "(0 of 2" not in stderr
        else:
            assert stderr.startswith("error: sampling a regular element with distinct diagonal")
            assert "(2 of 2 samples went into pairs with a repeated diagonal" in stderr
            stages.add("diagonal")
    assert stages == {"cell", "diagonal"}


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (3, 3), (5, 4)])
def test_certify_unsatisfiable_prime_is_exit_3(tmp_path, capsys, p, n):
    # F_p with p <= n + 1 has no regular triangular element in SL_n: rejected
    # before any sampling instead of running the budget out
    fp = GF(p)
    tgt = write_json(tmp_path / "t.json", matrix_to_json(elementary(fp, n, 1, 2, 1)))
    xs = write_json(tmp_path / "x.json", [matrix_to_json(elementary(fp, n, 2, 1, 1))])
    code, _, stderr = run_cli(
        ["certify", "--field", f"Fp:{p}", "--n", str(n), "--target", tgt, "--genset", xs,
         "--budget", "2000", "--seed", "1"],
        capsys,
    )
    assert code == 3
    assert f"p > {n + 1}" in stderr


@pytest.mark.parametrize(
    "entries",
    [[["1", "0"], ["0", "1/0"]], 7, "ab", [["1", "0"], 5]],
    ids=["zero-denominator", "int", "string", "row-not-list"],
)
def test_certify_malformed_target_entries_is_exit_3(tmp_path, genset_file, capsys, entries):
    tgt = write_json(tmp_path / "bad.json", {"n": 2, "field": {"kind": "Q"}, "entries": entries})
    code, _, stderr = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", tgt, "--genset", genset_file],
        capsys,
    )
    assert code == 3
    assert stderr.startswith("error:")


# SHA-256 of `certify --genset X={E_12(1)} --seed 5` for two fixed targets, as
# produced by the scalar-entry matrix kernel this package used before its flat
# int kernel, when certify took t from the radius n-1 ball and g over t by the
# seven-block route; a fixed seed must keep giving byte-identical
# certificates, so the same library calls must still reproduce them
GOLDEN_CERTIFICATES = [
    ("Q", [["1", "0", "-2"], ["2", "1", "-4"], ["3", "-3", "-5"]],
     "82cf0a4a082449ee823dea4b65d301f4bc6cc64d72647a28185739b5ff75903f"),
    ("Fp:101", [["1", "0", "0", "0"], ["0", "23", "7", "18"], ["94", "18", "46", "58"],
                ["22", "81", "19", "81"]],
     "525b543404af0262cd85deba70eb36b8bf5cfb57eec1ee12589e4042aa235ce0"),
]

# the same two requests through `certify`, which now takes t from the
# radius-1 ball and g as two conjugates of t
GOLDEN_SHORT_CERTIFICATES = {
    "Q": "a13b9313d7cfbaf954aa0b4c5aef1e7625d6a2f6bc5e65d69f3b3b3497fa71d0",
    "Fp:101": "bba610a9261a7d8538c958e9d7c92e6bf9fd7a71035fb1dd6d564f46d8f7578b",
}


def golden_request(tmp_path, field_arg, entries):
    field = QQ if field_arg == "Q" else GF(int(field_arg.split(":")[1]))
    n = len(entries)
    g = {"n": n, "field": field.to_json(), "entries": entries}
    xs = [matrix_to_json(elementary(field, n, 1, 2, 1))]
    return n, g, xs, write_json(tmp_path / "g.json", g), write_json(tmp_path / "x.json", xs)


@pytest.mark.parametrize("field_arg,entries,digest", GOLDEN_CERTIFICATES, ids=["Q", "F101"])
def test_certify_output_is_byte_identical_to_golden(tmp_path, monkeypatch, field_arg, entries, digest):
    # the paper's route: t from the ball of radius n - 1, the seven-block middle level
    n, g, xs, _, _ = golden_request(tmp_path, field_arg, entries)
    X = GeneratingSet.of(matrix_from_json(x) for x in xs)
    rng = Random(5)
    monkeypatch.setattr(decompose, "smallest_radius", lambda X: X.n - 1)
    t, t_cert = find_regular_in_ball(X, rng)
    mid = decompose_as_conjugates_of(matrix_from_json(g), t, rng)
    cert = replace(substitute_certificate(mid, t_cert), seed=5, bound_claimed=56 * (n - 1))
    out = _dumps(certificate_to_json(cert))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field_arg,entries,digest", GOLDEN_CERTIFICATES, ids=["Q", "F101"])
def test_certify_output_is_byte_identical_to_short_golden(tmp_path, capsys, field_arg, entries, digest):
    n, _, _, tgt, xs = golden_request(tmp_path, field_arg, entries)
    code, stdout, _ = run_cli(
        ["certify", "--field", field_arg, "--n", str(n), "--target", tgt, "--genset", xs,
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["meta"]["length"] == 8
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_SHORT_CERTIFICATES[field_arg]


def test_certify_summary_names_route_radius_and_attempts(tmp_path, capsys):
    n, _, _, tgt, xs = golden_request(tmp_path, *GOLDEN_CERTIFICATES[0][:2])
    code, _, stderr = run_cli(
        ["certify", "--field", "Q", "--n", str(n), "--target", tgt, "--genset", xs, "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "certificate length 8 (claimed bound 112)" in stderr
    assert "route two-letter" in stderr
    assert "t at radius 1 after 5 samples (3 outside the open cell" in stderr
    assert "basis search 2 attempts" in stderr


def test_certify_mismatch_is_exit_1(tmp_path, target_file, genset_file, capsys, monkeypatch):
    # a builder that drops a letter must be caught by the final exact check
    real = decompose.substitute_certificate

    def drop_last_letter(outer, inner):
        cert = real(outer, inner)
        return replace(cert, word=cert.word[:-1])

    monkeypatch.setattr(decompose, "substitute_certificate", drop_last_letter)
    code, stdout, stderr = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--genset", genset_file,
         "--seed", "3"],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and "Traceback" not in stderr


def test_certify_then_verify_under_python_O(tmp_path, target_file, genset_file, subprocess_env):
    # the final check is explicit code, not an assert, so -O keeps it
    out = str(tmp_path / "cert.json")
    r = subprocess.run(
        [sys.executable, "-O", "-m", "slword", "certify", "--field", "Q", "--n", "2",
         "--target", target_file, "--genset", genset_file, "--seed", "9", "--out", out],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert r.returncode == 0, r.stderr
    v = subprocess.run([sys.executable, "-O", "-m", "slword", "verify", out],
                       capture_output=True, text=True, env=subprocess_env)
    assert v.returncode == 0, v.stderr
    assert "OK" in v.stderr


def test_bruhat_report(tmp_path, capsys):
    n0 = write_json(tmp_path / "n0.json", matrix_to_json(SLMatrix(QQ, [[0, 1], [-1, 0]])))
    code, stdout, _ = run_cli(["bruhat", "--matrix", n0], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["bruhat"]["w"] == [2, 1]
    assert report["big_cell"] is None

    # a generic matrix lies in the dense cell (w = longest) and in U-TU
    generic = write_json(tmp_path / "g.json", matrix_to_json(SLMatrix(QQ, [[1, 1], [1, 2]])))
    report = json.loads(run_cli(["bruhat", "--matrix", generic], capsys)[1])
    assert report["bruhat"]["w"] == [2, 1]
    assert report["big_cell"] is not None

    # upper triangular input: trivial cell
    upper = write_json(tmp_path / "b.json", matrix_to_json(SLMatrix(QQ, [[2, 1], [0, "1/2"]])))
    report = json.loads(run_cli(["bruhat", "--matrix", upper], capsys)[1])
    assert report["bruhat"]["w"] == [1, 2]


def test_oracle_diameter_report(capsys):
    code, stdout, _ = run_cli(["oracle", "diameter", "--n", "2", "--p", "3"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["order"] == 24
    assert report["results"][0]["generates"] is True
    assert report["results"][0]["diameter"] == 1  # all classes together are one ball
    assert "finite-field" in report["note"]


def test_oracle_diameter_with_classes(capsys):
    code, stdout, _ = run_cli(
        ["oracle", "diameter", "--n", "2", "--p", "3", "--classes", "1"], capsys
    )
    report = json.loads(stdout)
    assert report["results"][0] == {"classSet": [1], "generates": True, "diameter": 3}
    # the quaternion class does not normally generate
    code, stdout, _ = run_cli(
        ["oracle", "diameter", "--n", "2", "--p", "3", "--classes", "3"], capsys
    )
    assert json.loads(stdout)["results"][0]["generates"] is False


def test_oracle_delta_report(capsys):
    code, stdout, _ = run_cli(["oracle", "delta", "--n", "2", "--p", "3"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["delta"] == 3
    assert report["delta_k"][0] == 3
    assert len(report["results"]) == 2**7 - 1


def test_oracle_transvection_report(capsys):
    code, stdout, _ = run_cli(["oracle", "transvection", "--n", "3", "--p", "2"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["order"] == 168 and report["diameter"] == 3


def test_oracle_cap_exceeded_is_exit_4(capsys):
    code, _, _ = run_cli(["oracle", "diameter", "--n", "2", "--p", "5", "--cap", "10"], capsys)
    assert code == 4


def test_seed_env_var_fallback(tmp_path, target_file, genset_file, capsys, monkeypatch):
    monkeypatch.setenv("SLWORD_SEED", "123")
    _, out_env, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--genset", genset_file],
        capsys,
    )
    monkeypatch.delenv("SLWORD_SEED")
    _, out_flag, _ = run_cli(
        ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--genset", genset_file,
         "--seed", "123"],
        capsys,
    )
    assert out_env == out_flag


def test_fresh_process_round_trip(tmp_path, target_file, generator_file, subprocess_env):
    out = str(tmp_path / "cert.json")
    r = subprocess.run(
        [sys.executable, "-m", "slword", "certify", "--field", "Q", "--n", "2",
         "--target", target_file, "--generator", generator_file, "--seed", "42", "--out", out],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert r.returncode == 0, r.stderr
    v = subprocess.run([sys.executable, "-m", "slword", "verify", out], capture_output=True,
                       env=subprocess_env)
    assert v.returncode == 0
