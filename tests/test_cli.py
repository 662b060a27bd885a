import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
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
    decompose_via_sourour,
    elementary,
    find_regular_in_ball,
    matrix_from_json,
    matrix_to_json,
    random_sl,
    substitute_certificate,
)
from slword import cli, oracle
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


def assert_one_canonical_line(out):
    assert out.count("\n") == 1 and out.endswith("\n")
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


def assert_golden(out, digest):
    """`out` is canonical, and its indented re-encoding, the form the golden
    digests were recorded from, hashes to `digest`: together they pin the
    bytes of `out`."""
    assert_one_canonical_line(out)
    indented = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == digest


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


def tamper_rank_two_letter(cert, tamper):
    """Mutate the first letter over base 0, E_12(1) E_34(1) (rank(x - 1) = 2),
    or swap a base for another of the same rank."""
    k = next(i for i, l in enumerate(cert["word"]) if l["base"] == 0)
    letter = cert["word"][k]
    if tamper == "conjugator entry":
        # 99 times row 2 added to row 1: still determinant 1
        rows = letter["conjugator"]["entries"]
        rows[0] = [str(Fraction(a) + 99 * Fraction(b)) for a, b in zip(rows[0], rows[1])]
    elif tamper == "dropped letter":
        del cert["word"][k]
    elif tamper == "flipped exponent":
        letter["exponent"] = -letter["exponent"]
    else:  # E_12(1) E_34(1) -> E_12(2) E_34(1), or E_12(1) -> E_12(2)
        cert["base"][0 if tamper == "rank-2 base swapped" else 1]["entries"][0][1] = "2"


@pytest.mark.parametrize("field_arg", ["Q", "Fp:101"])
@pytest.mark.parametrize(
    "tamper",
    ["conjugator entry", "dropped letter", "flipped exponent", "rank-2 base swapped", "rank-1 base swapped"],
)
def test_verify_detects_tampering_with_a_rank_two_base(tmp_path, capsys, field_arg, tamper):
    field = QQ if field_arg == "Q" else GF(101)
    genset = write_json(tmp_path / "x.json", [
        matrix_to_json(elementary(field, 4, 1, 2, 1) * elementary(field, 4, 3, 4, 1)),
        matrix_to_json(elementary(field, 4, 1, 2, 1)),
    ])
    target = write_json(tmp_path / "g.json", matrix_to_json(random_sl(field, 4, Random(2), factors=8)))
    out = str(tmp_path / "cert.json")
    code, _, _ = run_cli(["certify", "--field", field_arg, "--n", "4", "--target", target,
                          "--genset", genset, "--seed", "8", "--out", out], capsys)
    assert code == 0 and run_cli(["verify", out], capsys)[0] == 0
    cert = json.loads(open(out).read())
    assert {l["base"] for l in cert["word"]} == {0, 1}
    tamper_rank_two_letter(cert, tamper)
    code, stdout, stderr = run_cli(["verify", write_json(tmp_path / "bad.json", cert)], capsys)
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


@pytest.mark.parametrize(
    "path,value",
    [(("word", 0, "exponent"), 1.5), (("word", 0, "exponent"), "1"),
     (("word", 0, "exponent"), True), (("word", 0, "base"), 0.9), (("n",), 2.5),
     (("target", "n"), 2.0), (("field", "p"), 7.0)],
    ids=["exponent-1.5", "exponent-str", "exponent-true", "base-0.9", "n-2.5", "target-n-2.0",
         "p-7.0"],
)
def test_verify_rejects_integer_fields_that_are_not_json_integers(tmp_path, capsys, path, value):
    # int() would truncate each of these to a value that makes the
    # certificate verify; it must be exit 3 instead
    g, t = SLMatrix(GF(7), [[1, 2], [1, 3]]), SLMatrix.diagonal(GF(7), [2, 4])
    cert = certificate_to_json(decompose_via_sourour(g, t))
    assert run_cli(["verify", write_json(tmp_path / "ok.json", cert)], capsys)[0] == 0
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, _, stderr = run_cli(["verify", write_json(tmp_path / "bad.json", cert)], capsys)
    assert code == 3
    assert stderr.startswith("error:") and "JSON integer" in stderr


def test_certify_and_verify_over_a_large_prime_field(tmp_path, subprocess_env):
    # primality of the modulus by trial division would take minutes here
    p, n = 10**18 + 3, 3
    field = GF(p)
    g = SLMatrix(field, [[1, 2, 0], [1, 3, 0], [0, 0, 1]])
    tgt = write_json(tmp_path / "g.json", matrix_to_json(g))
    xs = write_json(tmp_path / "x.json", [matrix_to_json(elementary(field, n, 1, 2, 1))])
    out = str(tmp_path / "cert.json")
    r = subprocess.run(
        [sys.executable, "-m", "slword", "certify", "--field", f"Fp:{p}", "--n", str(n),
         "--target", tgt, "--genset", xs, "--seed", "1", "--out", out],
        capture_output=True, text=True, env=subprocess_env, timeout=20,
    )
    assert r.returncode == 0, r.stderr
    v = subprocess.run([sys.executable, "-m", "slword", "verify", out],
                       capture_output=True, text=True, env=subprocess_env, timeout=20)
    assert v.returncode == 0, v.stderr


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


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail the test if the CLI enumerates a group."""

    def refuse(*args, **kwargs):
        raise AssertionError("the group was enumerated for a request rejected at the start")

    monkeypatch.setattr(cli, "enumerate_group", refuse)


@pytest.mark.parametrize("k", ["0", "-3"])
def test_oracle_delta_rejects_max_classes_below_1_before_enumerating(k, capsys, no_enumeration):
    code, stdout, stderr = run_cli(
        ["oracle", "delta", "--n", "2", "--p", "5", "--max-classes", k], capsys
    )
    assert code == 3 and stdout == ""
    assert "--max-classes must be at least 1" in stderr


@pytest.mark.parametrize("classes", ["", " ", "1,", "1;2"])
def test_oracle_diameter_rejects_an_empty_or_malformed_class_list(classes, capsys, no_enumeration):
    code, stdout, stderr = run_cli(
        ["oracle", "diameter", "--n", "2", "--p", "5", "--classes", classes], capsys
    )
    assert code == 3 and stdout == ""
    assert "--classes must be comma-separated class indices" in stderr


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
# seven-block route, and wrote JSON with indent=2; a fixed seed must keep
# giving the same certificates, so the same library calls must still
# reproduce them (`assert_golden` hashes the indented re-encoding)
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


# SHA-256 of `certify --generator t` for t = diag(2, 1, 1/2) and the
# diagonal target diag(3, 1, 1/3): every e_j is an eigenvector of it, so the
# level rule starts the basis at x = e_i + e_j; before the rule, that level
# took seeded random draws.  Taken from `certify --generator t --seed 5` as it
# was when that route still recorded its seed, with only "seed": 5 changed to
# null: the route draws nothing at random
GOLDEN_DIAGONAL_CERTIFICATES = {
    "Q": "eaf3e6942cfbb8a378ffe6d3df79c956e6335f1508c7e621c8225270224befe8",
    "Fp:101": "54a4ca19a4c1fee7c5d7dab375f5fc5457717c7301edc55d683fd9bce6ace5bf",
}


# SHA-256 of `certify --genset X={E_12(1)} --seed 5` for the central target -I
# (n = 2 over Q, n = 4 over F_101): the one route whose last two letters come
# from `unipotent_as_two_conjugates`, as z = (z E_12(-1)) E_12(1)
GOLDEN_CENTRAL_CERTIFICATES = [
    ("Q", 2, "1aba79476307d0d478d2ec62fec7ef6f63ce7b3c59dd092aaa94d136311e771c"),
    ("Fp:101", 4, "c6f564842265c652ff0d81564af39aa092d498d9b676fddfe4ba245aa65a9179"),
]


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
    assert_golden(_dumps(certificate_to_json(cert)), digest)


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
    assert_golden(stdout, GOLDEN_SHORT_CERTIFICATES[field_arg])


@pytest.mark.parametrize("field_arg,n,digest", GOLDEN_CENTRAL_CERTIFICATES, ids=["Q", "F101"])
def test_certify_central_target_is_byte_identical_to_golden(tmp_path, capsys, field_arg, n, digest):
    minus_one = "-1" if field_arg == "Q" else "100"
    entries = [[minus_one if i == j else "0" for j in range(n)] for i in range(n)]
    _, _, _, tgt, xs = golden_request(tmp_path, field_arg, entries)
    code, stdout, stderr = run_cli(
        ["certify", "--field", field_arg, "--n", str(n), "--target", tgt, "--genset", xs,
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "route two-letter (central: 4 letters)" in stderr
    assert json.loads(stdout)["meta"]["length"] == 16
    assert_golden(stdout, digest)


@pytest.mark.parametrize("field_arg", ["Q", "Fp:101"], ids=["Q", "F101"])
def test_certify_generator_on_a_diagonal_target_is_byte_identical_to_golden(tmp_path, capsys, field_arg):
    field = QQ if field_arg == "Q" else GF(101)
    one = field.one
    tgt = write_json(tmp_path / "g.json", matrix_to_json(SLMatrix.diagonal(field, [3, 1, one / 3])))
    gen = write_json(tmp_path / "t.json", matrix_to_json(SLMatrix.diagonal(field, [2, 1, one / 2])))
    code, stdout, _ = run_cli(
        ["certify", "--field", field_arg, "--n", "3", "--target", tgt, "--generator", gen],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["meta"]["length"] == 2
    assert_golden(stdout, GOLDEN_DIAGONAL_CERTIFICATES[field_arg])


def test_certify_generator_records_no_seed(tmp_path, target_file, generator_file, capsys, monkeypatch):
    # nothing on the --generator route draws from an rng: --seed and
    # $SLWORD_SEED are accepted and change nothing
    request = ["certify", "--field", "Q", "--n", "2", "--target", target_file, "--generator", generator_file]
    code, plain, _ = run_cli(request, capsys)
    assert code == 0
    meta = json.loads(plain)["meta"]
    assert meta["seed"] is None and meta["bound_claimed"] == 14
    assert run_cli(request + ["--seed", "2024"], capsys)[1] == plain
    monkeypatch.setenv("SLWORD_SEED", "7")
    assert run_cli(request, capsys)[1] == plain


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
    # one row per nonempty subset of classes 1..6: class 0, the identity's,
    # adds no letter, so delta leaves it out
    assert len(report["results"]) == 2**6 - 1
    assert all(0 not in r["classSet"] for r in report["results"])
    assert all(0 not in w for w in report["witnesses"])


def test_oracle_transvection_report(capsys):
    code, stdout, _ = run_cli(["oracle", "transvection", "--n", "3", "--p", "2"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["order"] == 168 and report["diameter"] == 3


# SHA-256 of the stdout of `oracle ...`, as written with indent=2 when each
# class set was searched twice and `transvection` enumerated the group twice;
# the delta digests are of those reports with every row and witness that
# contains class 0 removed, since delta no longer lists those subsets
GOLDEN_ORACLE_REPORTS = [
    ("diameter --n 2 --p 5", "1ac034bbcc347937779dab3c31d3ccc04f099a6f3523be9791645c3854d0d719"),
    ("diameter --n 2 --p 3 --classes 3",
     "6060a843b193393eec7e07ad783f582bac3a9f4866542edcd1ca5a01cf51a75a"),
    ("delta --n 3 --p 2", "8d5d15e040017e16165e20cef85cab718ff75e8905437b8db9e8f720c1c29bc1"),
    ("transvection --n 3 --p 2",
     "7fda2899daf68eb3e7afe7400b6490719e9464948d240f45090ce2b230810525"),
    # first recorded from the element-level search, before it ran over classes
    ("delta --n 2 --p 5", "ae4486e7e3d7257f7314f8f9277f99b627e121a38539bd778b7671cf4abeb9e3"),
    ("delta --n 2 --p 7", "695ed9a822a4a764edd073edce4a2e2997497589ffc844657e07d49f92d256a8"),
]


@pytest.mark.parametrize("request_args,digest", GOLDEN_ORACLE_REPORTS,
                         ids=["diameter", "diameter-classes", "delta", "transvection",
                              "delta-SL2F5", "delta-SL2F7"])
def test_oracle_output_is_byte_identical_to_golden(capsys, request_args, digest):
    code, stdout, _ = run_cli(["oracle", *request_args.split()], capsys)
    assert code == 0
    assert_golden(stdout, digest)


@pytest.mark.parametrize("action", ["diameter", "delta", "transvection"])
@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_oracle_rejects_a_dimension_below_2(action, n, capsys):
    code, stdout, stderr = run_cli(["oracle", action, "--n", n, "--p", "5"], capsys)
    assert code == 3 and stdout == ""
    assert stderr == f"error: dimension must be >= 2, got {n}\n"


def test_oracle_cap_exceeded_is_exit_4(capsys):
    code, _, _ = run_cli(["oracle", "diameter", "--n", "2", "--p", "5", "--cap", "10"], capsys)
    assert code == 4


@pytest.mark.parametrize("action", ["diameter", "delta", "transvection"])
def test_oracle_refuses_an_over_cap_group_before_enumerating(action, capsys, monkeypatch):
    # |SL(4,3)| = 12,130,560 is known from its formula, so no product is
    # formed; delta is refused even earlier, as SL(4,3) has at least 3^3 classes
    def refuse(*args):
        raise AssertionError("a product was formed for a group over the cap")

    monkeypatch.setattr(oracle, "_mul_mod", refuse)
    code, stdout, stderr = run_cli(["oracle", action, "--n", "4", "--p", "3"], capsys)
    assert code == 4 and stdout == ""
    if action == "delta":
        assert stderr == "error: at least 2^26 class subsets exceed the cap of 1048576\n"
    else:
        assert stderr == "error: SL_4(F_3) exceeds the cap of 1000000 elements\n"


@pytest.mark.parametrize("cap,code", [("119", 4), ("120", 0)])
def test_oracle_cap_admits_a_group_of_exactly_its_order(cap, code, capsys):
    # |SL(2,5)| = 120
    assert run_cli(["oracle", "delta", "--n", "2", "--p", "5", "--cap", cap], capsys)[0] == code


def test_oracle_delta_refuses_an_over_cap_sl2_before_enumerating(capsys, no_enumeration):
    # SL(2, 47) has 51 classes, so 2^50 subsets: refused from the class count
    code, stdout, stderr = run_cli(["oracle", "delta", "--n", "2", "--p", "47"], capsys)
    assert code == 4 and stdout == ""
    assert stderr == "error: 2^50 class subsets exceed the cap of 1048576\n"


def test_oracle_delta_refuses_a_large_prime_at_once(capsys, no_enumeration):
    # the cap is compared by exponent, so 2^(p+3), 125 MB here, is never built
    p, start = 1000000007, time.perf_counter()
    code, stdout, stderr = run_cli(["oracle", "delta", "--n", "2", "--p", str(p)], capsys)
    assert time.perf_counter() - start < 5
    assert code == 4 and stdout == ""
    assert stderr == f"error: 2^{p + 3} class subsets exceed the cap of 1048576\n"


@pytest.mark.parametrize("n,p,m", [(3, 5, 30), (4, 3, 27), (10**6, 10**18 + 3, 10**18 + 3)],
                         ids=["SL(3,5)", "SL(4,3)", "huge"])
def test_oracle_delta_refuses_an_over_cap_sl_n_before_enumerating(n, p, m, capsys, no_enumeration):
    # SL(3, p) has at least p^2 + p classes, and SL(n, p) for n >= 4 at least
    # p^(n-1); the power stops once it is over the cap
    start = time.perf_counter()
    code, stdout, stderr = run_cli(["oracle", "delta", "--n", str(n), "--p", str(p)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 4 and stdout == ""
    assert stderr == f"error: at least 2^{m - 1} class subsets exceed the cap of 1048576\n"


@pytest.mark.parametrize("n,p,cap", [(3, 3, 1000), (3, 5, 2**25)], ids=["SL(3,3)", "SL(3,5)"])
def test_oracle_delta_refuses_sl3_from_its_class_count_before_enumerating(n, p, cap, capsys,
                                                                        no_enumeration):
    # caps between 2^(p^2 - 1) and 2^(p^2 + p - 1): refused by p^2 + p, not
    # after enumerating the group
    code, stdout, stderr = run_cli(
        ["oracle", "delta", "--n", str(n), "--p", str(p), "--subset-cap", str(cap)], capsys
    )
    assert code == 4 and stdout == ""
    assert stderr == f"error: at least 2^{p * p + p - 1} class subsets exceed the cap of {cap}\n"


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3)] + [(2, p) for p in [2, 3, 5, 7, 11, 13]])
def test_sl_n_class_count_is_at_least_p_to_the_n_minus_1(n, p):
    # one class per characteristic polynomial, and for SL(3, p) with 3 not
    # dividing p - 1 exactly p^2 + p: the early refusal's lower bounds
    m = len(oracle.enumerate_group(n, p).classes)
    assert m >= p ** (n - 1)
    if n == 3:
        assert m == p * p + p
    oracle.require_delta_subsets(n, p, 2 ** (m - 1))


def test_subset_cap_by_exponent_equals_the_power():
    for m in [1, 2, 3, 9, 51]:
        for cap in [-100, -1, 0, 1, 2, 3, 4, 255, 256, 2**50 - 1, 2**50]:
            try:
                oracle._require_subsets(m, cap)
                refused = False
            except oracle.GroupSizeCapExceeded:
                refused = True
            assert refused == (2 ** (m - 1) > cap), (m, cap)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sl2_class_count_for_the_early_refusal_matches_enumeration(p):
    # the early refusal admits exactly the subset count of the enumerated classes
    m = len(oracle.enumerate_group(2, p).classes)
    oracle.require_delta_subsets(2, p, 2 ** (m - 1))
    with pytest.raises(oracle.GroupSizeCapExceeded):
        oracle.require_delta_subsets(2, p, 2 ** (m - 1) - 1)


@pytest.mark.parametrize("cap,code", [("255", 4), ("256", 0)])
def test_oracle_subset_cap_counts_the_subsets_delta_searches(cap, code, capsys):
    # SL(2,5) has 9 classes; delta searches the subsets of classes 1..8
    rc, stdout, stderr = run_cli(["oracle", "delta", "--n", "2", "--p", "5", "--subset-cap", cap], capsys)
    assert rc == code
    if code == 4:
        assert stdout == ""
        assert stderr == "error: 2^8 class subsets exceed the cap of 255\n"


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


def certify_golden(tmp_path, capsys, field_arg, entries):
    """`certify --out` on a golden request: its stdout, which must equal the
    file, and the file's path."""
    n, _, _, tgt, xs = golden_request(tmp_path, field_arg, entries)
    out = tmp_path / "cert.json"
    code, stdout, _ = run_cli(
        ["certify", "--field", field_arg, "--n", str(n), "--target", tgt, "--genset", xs,
         "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == out.read_text()
    return stdout, out


def certify_output(tmp_path, capsys):
    return certify_golden(tmp_path, capsys, *GOLDEN_CERTIFICATES[1][:2])[0]


def verify_mismatch_output(tmp_path, capsys):
    _, out = certify_golden(tmp_path, capsys, *GOLDEN_CERTIFICATES[1][:2])
    cert = json.loads(out.read_text())
    rows = cert["word"][0]["conjugator"]["entries"]
    rows[0] = [str((int(a) + int(b)) % 101) for a, b in zip(rows[0], rows[1])]
    code, stdout, _ = run_cli(["verify", write_json(tmp_path / "bad.json", cert)], capsys)
    assert code == 1
    return stdout


def bruhat_output(tmp_path, capsys):
    g = write_json(tmp_path / "g.json", matrix_to_json(SLMatrix(QQ, [[1, 1], [1, 2]])))
    code, stdout, _ = run_cli(["bruhat", "--matrix", g], capsys)
    assert code == 0
    return stdout


def oracle_output(request_args):
    def run(tmp_path, capsys):
        code, stdout, _ = run_cli(["oracle", *request_args.split()], capsys)
        assert code == 0
        return stdout

    return run


@pytest.mark.parametrize(
    "request_output",
    [certify_output, verify_mismatch_output, bruhat_output,
     oracle_output("diameter --n 2 --p 3 --classes 1"), oracle_output("delta --n 2 --p 3"),
     oracle_output("transvection --n 3 --p 2")],
    ids=["certify", "verify-mismatch", "bruhat", "oracle-diameter", "oracle-delta",
         "oracle-transvection"],
)
def test_every_json_output_is_one_canonical_line(tmp_path, capsys, request_output):
    assert_one_canonical_line(request_output(tmp_path, capsys))


def test_verify_accepts_an_indented_certificate(tmp_path, capsys):
    # certificates written before the output became compact still verify
    _, out = certify_golden(tmp_path, capsys, *GOLDEN_CERTIFICATES[0][:2])
    out.write_text(json.dumps(json.loads(out.read_text()), indent=2, sort_keys=True) + "\n")
    code, _, stderr = run_cli(["verify", str(out)], capsys)
    assert code == 0
    assert "OK" in stderr


def load_benchmark_check():
    """The benchmark's own output checker, loaded by path so that it does not
    shadow or depend on any module named `check`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("field_arg,entries", [g[:2] for g in GOLDEN_CERTIFICATES], ids=["Q", "F101"])
def test_benchmark_check_accepts_certify_output(tmp_path, capsys, field_arg, entries):
    check = load_benchmark_check()
    _, out = certify_golden(tmp_path, capsys, field_arg, entries)
    p = None if field_arg == "Q" else 101
    target = check.parse_matrix({"n": len(entries), "field": check.field_json(p), "entries": entries},
                                p, len(entries))
    assert check.check_certificate_file(str(out), p, len(entries), target)["letters"] == 8


def test_benchmark_check_accepts_oracle_diameter_output(capsys):
    check = load_benchmark_check()
    code, stdout, _ = run_cli(["oracle", "diameter", "--n", "2", "--p", "11", "--classes", "2"], capsys)
    assert code == 0
    check.check_oracle_diameter(json.loads(stdout), 2)


# SHA-256 over the stdout of `certify --genset X={E_12(1)} --seed s`, in order
# of s, for the targets random_sl(F, n, Random(s), factors=2n), s = 0..29;
# recorded when Sourour's basis and the solve in the Borel still ran on
# scalar rows, so the flat kernels must give the same bytes
CERTIFY_SWEEP_DIGESTS = {
    ("Q", 3):
        "65d411110b016b33e50a7329e2be38a88096bfd9d5f64f1788000b3ded98c4e2",
    ("Q", 4):
        "5f8c5de4ff101c3fe438bb4e4a2782277e6b791e3ae048cb9a0755f330ee30f0",
    ("Q", 5):
        "f83e903cacf823c9a56d5af98bfa44ecac3bf741db3d4432698a56aee365cf1b",
    ("Fp:101", 3):
        "0061dd7a383327ea3c85ca7f70d88d972dfcff55d73af989dea924b36ec72b6f",
    ("Fp:101", 4):
        "d32c97bca6accf71c69a9c140bea53f12bb2e7f48eaf7c73d09c02fc00426577",
    ("Fp:101", 5):
        "d4b4855744842f040d1cfb45f872ecb20fe1059b53e4e8838a1e9ac9cca5f406",
}


@pytest.mark.parametrize("field_arg,n", sorted(CERTIFY_SWEEP_DIGESTS), ids=lambda v: str(v))
def test_certify_sweep_is_byte_identical_to_its_digest(tmp_path, capsys, field_arg, n):
    field = QQ if field_arg == "Q" else GF(101)
    xs = write_json(tmp_path / "x.json", [matrix_to_json(elementary(field, n, 1, 2, 1))])
    digest = hashlib.sha256()
    for seed in range(30):
        g = random_sl(field, n, Random(seed), factors=2 * n)
        tgt = write_json(tmp_path / "g.json", matrix_to_json(g))
        code, stdout, _ = run_cli(
            ["certify", "--field", field_arg, "--n", str(n), "--target", tgt, "--genset", xs,
             "--seed", str(seed)],
            capsys,
        )
        assert code == 0
        digest.update(stdout.encode())
    assert digest.hexdigest() == CERTIFY_SWEEP_DIGESTS[field_arg, n]
