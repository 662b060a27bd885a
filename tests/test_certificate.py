import json
from dataclasses import replace
from fractions import Fraction

import pytest

from slword import (
    GF,
    QQ,
    Certificate,
    Letter,
    SLMatrix,
    certificate_from_json,
    certificate_to_json,
    conjugate_certificate,
    elementary,
    evaluate_certificate,
    unipotent_as_two_conjugates,
    verify_certificate,
)


def worked_certificate():
    t = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    u = elementary(QQ, 2, 1, 2, 1)
    return unipotent_as_two_conjugates(t, u)


def test_empty_word_certifies_identity():
    ident = SLMatrix.identity(QQ, 2)
    cert = Certificate(field=QQ, n=2, target=ident, base=(elementary(QQ, 2, 1, 2, 1),), word=())
    assert verify_certificate(cert)


def test_worked_certificate_verifies():
    assert verify_certificate(worked_certificate())


def test_perturbed_conjugator_fails():
    cert = worked_certificate()
    l0 = cert.word[0]
    tampered = replace(
        cert, word=(Letter(l0.conjugator * elementary(QQ, 2, 1, 2, 1), 0, l0.exponent), cert.word[1])
    )
    assert not verify_certificate(tampered)


def test_wrong_exponent_fails():
    cert = worked_certificate()
    l0, l1 = cert.word
    flipped = replace(cert, word=(Letter(l0.conjugator, 0, -1), l1))
    assert not verify_certificate(flipped)


def test_malformed_certificates_raise():
    cert = worked_certificate()
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, word=(Letter(cert.word[0].conjugator, 5, 1),)))
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, word=(Letter(cert.word[0].conjugator, 0, 2),)))
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, base=()))
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, target=SLMatrix.identity(GF(5), 2)))


def test_evaluate_returns_the_product():
    cert = worked_certificate()
    assert evaluate_certificate(cert) == cert.target


def test_conjugating_a_certificate_preserves_length_and_validity():
    cert = worked_certificate()
    c = SLMatrix(QQ, [[1, 2], [1, 3]])
    moved = conjugate_certificate(cert, c)
    assert moved.length == cert.length
    assert moved.target == c * cert.target * c.inverse()
    assert verify_certificate(moved)


def test_json_round_trip():
    cert = replace(worked_certificate(), seed=7, bound_claimed=2)
    d = certificate_to_json(cert)
    back = certificate_from_json(d)
    assert back == cert
    assert json.dumps(certificate_to_json(back), sort_keys=True) == json.dumps(d, sort_keys=True)
    assert d["meta"]["length"] == 2


def test_json_rejects_malformed():
    d = certificate_to_json(worked_certificate())
    del d["word"]
    with pytest.raises(ValueError):
        certificate_from_json(d)
