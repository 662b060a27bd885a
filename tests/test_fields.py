from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slword import GF, QQ, Field, Fp
from slword.fields import MODULUS_LIMIT, _is_prime


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
nonzero_rationals = rationals.filter(bool)
residues_13 = st.integers(min_value=0, max_value=12).map(lambda v: Fp(v, 13))
nonzero_residues_13 = residues_13.filter(bool)


def test_rational_addition():
    assert QQ.parse("1/2") + QQ.parse("1/3") == Fraction(5, 6)


def test_prime_field_multiplication():
    assert GF(5).scalar(2) * GF(5).scalar(3) == GF(5).one


@given(nonzero_rationals)
def test_rational_inverse(x):
    assert x * x**-1 == 1


@given(nonzero_residues_13)
def test_residue_inverse(x):
    assert x * x**-1 == Fp(1, 13)


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(residues_13, residues_13, residues_13)
def test_residue_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) * c == a * c + b * c


def test_canonical_forms():
    assert QQ.parse("4/2") == Fraction(2)
    assert QQ.parse("-1/-2") == Fraction(1, 2)
    assert QQ.format(QQ.parse("-3/6")) == "-1/2"
    assert GF(7).parse("13") == Fp(6, 7)
    assert GF(7).parse("-1") == Fp(6, 7)
    assert GF(7).format(Fp(20, 7)) == "6"


@given(st.integers(), st.integers(min_value=0, max_value=100))
def test_residue_renormalization_is_stable(v, shift):
    a = Fp(v, 11)
    assert Fp(a.val, 11) == a == Fp(v + 11 * shift, 11)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        Fp(1, 5) / Fp(0, 5)
    with pytest.raises(ZeroDivisionError):
        Fp(0, 5) ** -1


def test_mixed_fields_rejected():
    with pytest.raises(TypeError):
        Fp(1, 5) + Fp(1, 7)
    with pytest.raises(TypeError):
        Fp(1, 5) * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) - Fp(1, 5)
    with pytest.raises(TypeError):
        GF(5).scalar(Fraction(1, 2))
    with pytest.raises(TypeError):
        QQ.scalar(Fp(1, 5))


small_ints = st.integers(min_value=-30, max_value=30)
small_primes = st.sampled_from((2, 5, 13))


@given(
    st.builds(Fp, small_ints, small_primes),
    st.one_of(small_ints, st.builds(Fp, small_ints, small_primes)),
)
def test_residue_equality_agrees_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (b == a)


def test_residue_equals_only_its_canonical_int():
    assert Fp(3, 5) == 3
    assert Fp(3, 5) != 8 and Fp(3, 5) != -2
    assert {Fp(3, 5): "x"}.get(3) == "x"


def test_int_coercion():
    assert 1 - Fp(3, 7) == Fp(5, 7)
    assert Fp(3, 7) + 6 == Fp(2, 7)
    assert 2 / Fp(3, 7) == Fp(3, 7)  # 3 * 3 = 2 mod 7


def test_modulus_must_be_prime():
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2 and
    # 3215031751 one to the bases 2, 3, 5 and 7
    for bad in (0, 1, 4, 6, 9, 15, 561, 2047, 3215031751):
        with pytest.raises(ValueError):
            Field(bad)
    GF(2), GF(3), GF(101)  # fine


def test_modulus_primality_agrees_with_trial_division():
    def by_trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    for p in range(3000):
        assert _is_prime(p) == by_trial_division(p), p


def test_large_prime_moduli_are_accepted_below_the_limit():
    # the last is the largest prime below the limit
    for p in (10**18 + 3, 2**61 - 1, 3317044064679887385961813):
        assert GF(p).p == p
    # the limit is composite but a strong pseudoprime to all 13 bases, so
    # Miller-Rabin alone would accept it; it and everything above it are
    # rejected, with the limit named
    assert MODULUS_LIMIT == 1287836182261 * 2575672364521 and _is_prime(MODULUS_LIMIT)
    for p in (MODULUS_LIMIT, MODULUS_LIMIT + 2, 10**30 + 57):
        with pytest.raises(ValueError, match=str(MODULUS_LIMIT)):
            Field(p)


def test_field_json_round_trip():
    for f in (QQ, GF(7)):
        assert Field.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        Field.from_json({"kind": "R"})
    with pytest.raises(ValueError):
        Field.from_json("Q")
    # the modulus must be a JSON integer, not a float, a string or a boolean
    for p in (7.0, "7", True, None):
        with pytest.raises(ValueError):
            Field.from_json({"kind": "Fp", "p": p})


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        QQ.parse("1/0")
