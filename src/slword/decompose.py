"""End-to-end conjugate-word factorizations in SL_n with verifiable bounds.

The pipeline, bottom to top:

- ``decompose_via_unipotents``: any g is a product of exactly seven
  conjugates of upper unitriangular matrices.  Split g = h * h' with h^-1 and
  h' in the big cell, factor both, and regroup as

      g = u_1^-1 * lo * t * u_2,         lo in U-, t diagonal,

  then emit u_1^-1 and u_2 as-is (one block each), lo conjugated into U by
  the longest Weyl representative n_0 (one block), and t as its 4(n-1)
  root-group factors grouped into two lower and two upper blocks (lower
  blocks again n_0-conjugated into U).  1 + 1 + 4 + 1 = 7 blocks.

- ``decompose_as_conjugates_of``: each unipotent block u expands into two
  conjugates of a fixed regular triangular t, for a certificate of length at
  most 14 over base {t}.  Identity blocks are skipped, and an already
  unipotent target short-circuits to length 2.

- ``find_regular_in_ball``: given a normal generating set X, sample products
  of r = n-1 commutator pairs (2r letters each, so certified ball elements)
  until two of them land in the open Bruhat cell; after conjugating their
  presentations to the forms x * n_0 and n_0 * x_1, the product
  t = x * n_0^2 * x_1 is upper triangular with a certificate of length at
  most 4r, and it is retried until its diagonal is pairwise distinct.

- ``decompose_full``: compose the two, expanding every t^{+-1} letter through
  t's own certificate; total length at most 14 * 4r = 56r over base X.

Every certificate is verified exactly before being returned; with a fixed
seed the whole pipeline is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .bruhat import SearchBudgetExceeded, big_cell_decompose, bruhat_decompose, split_over_big_cell
from .certificate import Certificate, Letter, conjugate_certificate, verify_certificate
from .fields import Field
from .matrix import (
    SLMatrix,
    is_central,
    is_upper_unitriangular,
    mat_product,
)
from .rootdata import elementary, longest_element_rep, longest_perm
from .torus import torus_factor
from .unipotent import _require_regular_borel, unipotent_as_two_conjugates


@dataclass(frozen=True)
class GeneratingSet:
    """A finite set of SL_n matrices meant to normally generate.

    Scalar matrices are central, normally generate nothing beyond the center,
    and make the samplers spin forever; a set with no noncentral element is
    therefore rejected outright.
    """

    field: Field
    n: int
    elements: tuple[SLMatrix, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty generating set")
        for x in self.elements:
            if x.field != self.field or x.n != self.n:
                raise ValueError("generating set mixes fields or dimensions")
        if not self.noncentral_indices:
            raise ValueError("every element is central; the set cannot normally generate SL_n")

    @classmethod
    def of(cls, elements) -> "GeneratingSet":
        elements = tuple(elements)
        if not elements:
            raise ValueError("empty generating set")
        return cls(field=elements[0].field, n=elements[0].n, elements=elements)

    @property
    def noncentral_indices(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.elements) if not is_central(x))


def random_sl(field: Field, n: int, rng: Random, factors: int | None = None, bound: int = 2) -> SLMatrix:
    """Random SL_n element: a product of random elementary matrices."""
    if factors is None:
        factors = n + 2
    mats = []
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            j = i % n + 1
        mats.append(elementary(field, n, i, j, field.random_nonzero(rng, bound)))
    return mat_product(mats)


def random_sl_bounded(field: Field, n: int, rng: Random, bound: int = 10, tries: int = 10_000) -> SLMatrix:
    """Random SL_n element whose entries have height at most ``bound``.

    Over F_p every entry qualifies; over Q this rejection-samples short
    elementary products until the entries stay small.
    """
    for _ in range(tries):
        g = random_sl(field, n, rng, factors=n + 1, bound=1)
        if field.p is not None:
            return g
        ok = all(
            abs(e.numerator) <= bound and e.denominator <= bound
            for row in g.rows
            for e in row
        )
        if ok:
            return g
    raise SearchBudgetExceeded("sampling a height-bounded element", tries)


def decompose_via_unipotents(
    g: SLMatrix, rng: Random, budget: int = 10_000
) -> list[tuple[SLMatrix, SLMatrix]]:
    """Exactly seven pairs (c, u) with u upper unitriangular and
    g = prod of c * u * c^-1 in order."""
    field, n = g.field, g.n
    ident = SLMatrix.identity(field, n)
    if g.is_identity():
        return [(ident, ident)] * 7

    h, hp = split_over_big_cell(g, rng, budget)
    f1 = big_cell_decompose(h.inverse())
    f2 = big_cell_decompose(hp)
    # g = u1^-1 * (t1^-1 (lo1^-1 lo2) t1) * (t1^-1 t2) * u2
    u1i = f1.upper.inverse()
    t1i = f1.diag.inverse()
    lo = mat_product([t1i, f1.lower.inverse(), f2.lower, f1.diag])
    t = t1i * f2.diag
    u2 = f2.upper

    n0 = longest_element_rep(field, n)
    n0i = n0.inverse()

    def into_upper(lower_mat: SLMatrix) -> tuple[SLMatrix, SLMatrix]:
        u = mat_product([n0i, lower_mat, n0])
        assert is_upper_unitriangular(u)
        return (n0, u)

    roots = torus_factor(t)
    r = n - 1
    x_blk = mat_product(roots[:r])          # lower
    u_blk = mat_product(roots[r : 2 * r])   # upper
    v_blk = mat_product(roots[2 * r : 3 * r])  # lower
    w_blk = mat_product(roots[3 * r :])     # upper

    blocks = [
        (ident, u1i),
        into_upper(lo),
        into_upper(x_blk),
        (ident, u_blk),
        into_upper(v_blk),
        (ident, w_blk),
        (ident, u2),
    ]
    for _, u in blocks:
        assert is_upper_unitriangular(u)
    assert mat_product([mat_product([c, u, c.inverse()]) for c, u in blocks]) == g
    return blocks


def decompose_as_conjugates_of(
    g: SLMatrix, t: SLMatrix, rng: Random, budget: int = 10_000
) -> Certificate:
    """Certificate of length at most 14 for g over the single base element t
    (upper triangular, pairwise distinct diagonal)."""
    _require_regular_borel(t)
    if t.field != g.field or t.n != g.n:
        raise ValueError("dimension/field mismatch between target and base element")

    if g.is_identity():
        word: tuple[Letter, ...] = ()
    elif is_upper_unitriangular(g):
        word = unipotent_as_two_conjugates(t, g).word
    else:
        letters = []
        for c, u in decompose_via_unipotents(g, rng, budget):
            if u.is_identity():
                continue
            for l in unipotent_as_two_conjugates(t, u).word:
                letters.append(Letter(c * l.conjugator, 0, l.exponent))
        word = tuple(letters)

    cert = Certificate(
        field=g.field, n=g.n, target=g, base=(t,), word=word, bound_claimed=14
    )
    assert cert.length <= 14 and verify_certificate(cert)
    return cert


def _sample_ball_element(X: GeneratingSet, rng: Random) -> Certificate:
    """A random certified element of the 2r-ball: a product of r commutator
    blocks (h x h^-1)(k x^-1 k^-1) with x drawn from the noncentral part of X."""
    field, n = X.field, X.n
    letters = []
    chain = []
    for _ in range(n - 1):
        idx = rng.choice(X.noncentral_indices)
        x = X.elements[idx]
        h = random_sl(field, n, rng)
        k = random_sl(field, n, rng)
        letters.append(Letter(h, idx, +1))
        letters.append(Letter(k, idx, -1))
        chain.extend([h, x, h.inverse(), k, x.inverse(), k.inverse()])
    return Certificate(
        field=field, n=n, target=mat_product(chain), base=X.elements, word=tuple(letters)
    )


def find_regular_in_ball(
    X: GeneratingSet, rng: Random, budget: int = 10_000
) -> tuple[SLMatrix, Certificate]:
    """A regular upper triangular t with a certificate of length <= 4(n-1)
    over X: t = x * n_0^2 * x_1 built from two certified big-cell samples.

    Over F_p with p <= n + 1 no such t exists: its diagonal would need n
    distinct nonzero residues with product 1, but p <= n leaves too few, and
    p = n + 1 forces all of them, whose product is -1 (Wilson).  Those fields
    raise ``ValueError`` before any sampling.
    """
    field, n = X.field, X.n
    if field.p is not None and field.p <= n + 1:
        raise ValueError(
            f"SL_{n}(F_{field.p}) has no upper triangular element with {n} distinct "
            f"diagonal entries; the regular-element search needs p > {n + 1}"
        )
    w0 = longest_perm(n)
    attempts = 0

    def sample_next_to_n0(left: bool) -> Certificate:
        # certified element of the form x * n_0 (left) or n_0 * x_1 (right)
        nonlocal attempts
        while attempts < budget:
            attempts += 1
            cert = _sample_ball_element(X, rng)
            bf = bruhat_decompose(cert.target)
            if bf.w != w0:
                continue
            if left:
                # b (u n_0 b) b^-1 = (b u) n_0
                return conjugate_certificate(cert, bf.b)
            # u^-1 (u n_0 b) u = n_0 (b u)
            return conjugate_certificate(cert, bf.u.inverse())
        raise SearchBudgetExceeded("sampling the open Bruhat cell", budget)

    while attempts < budget:
        c1 = sample_next_to_n0(left=True)
        c2 = sample_next_to_n0(left=False)
        t = c1.target * c2.target
        diag = t.entries[:: n + 1]  # one common denominator: equal ints, equal entries
        distinct = all(diag[i] != diag[j] for i in range(n) for j in range(i + 1, n))
        if not distinct:
            continue
        cert = Certificate(
            field=field,
            n=n,
            target=t,
            base=X.elements,
            word=c1.word + c2.word,
            bound_claimed=4 * (n - 1),
        )
        _require_regular_borel(t)
        assert cert.length <= 4 * (n - 1) and verify_certificate(cert)
        return t, cert
    raise SearchBudgetExceeded("sampling a regular element with distinct diagonal", budget)


def decompose_full(
    g: SLMatrix,
    X: GeneratingSet,
    rng: Random,
    budget: int = 10_000,
    seed: int | None = None,
) -> Certificate:
    """Certificate for g over base X of length at most 56(n-1)."""
    if g.field != X.field or g.n != X.n:
        raise ValueError("dimension/field mismatch between target and generating set")
    r = g.n - 1
    bound = 56 * r
    if g.is_identity():
        cert = Certificate(
            field=g.field, n=g.n, target=g, base=X.elements, word=(), seed=seed, bound_claimed=bound
        )
        return cert

    t, t_cert = find_regular_in_ball(X, rng, budget)
    mid = decompose_as_conjugates_of(g, t, rng, budget)

    letters = []
    for l in mid.word:
        if l.exponent == +1:
            for tl in t_cert.word:
                letters.append(Letter(l.conjugator * tl.conjugator, tl.base_index, tl.exponent))
        else:
            # t^-1 reverses t's word and flips every exponent
            for tl in reversed(t_cert.word):
                letters.append(Letter(l.conjugator * tl.conjugator, tl.base_index, -tl.exponent))

    cert = Certificate(
        field=g.field,
        n=g.n,
        target=g,
        base=X.elements,
        word=tuple(letters),
        seed=seed,
        bound_claimed=bound,
    )
    assert cert.length <= bound and verify_certificate(cert)
    return cert
