from itertools import combinations
from random import Random

import pytest
from reference_kernel import central_class_indices, delta_over_every_subset, norms_by_element_search

from slword import (
    GF,
    GeneratingSet,
    SLMatrix,
    brute_force_elements,
    decompose_full,
    delta,
    elementary,
    enumerate_group,
    norm_ball_table,
    normally_generates,
    norms_by_fixed_point,
    transvection_diameter,
    verify_certificate,
)
from slword import oracle
from slword.oracle import GroupSizeCapExceeded, _letters


@pytest.mark.parametrize("n,p,order", [(2, 3, 24), (2, 5, 120), (3, 2, 168)])
def test_enumeration_agrees_with_brute_force(n, p, order):
    table = enumerate_group(n, p)
    direct = brute_force_elements(n, p)
    assert table.order == order == len(direct)
    assert set(table.elements) == direct


def test_known_order_formula():
    # |SL_n(F_p)| = p^(n(n-1)/2) (p^2 - 1) ... (p^n - 1), the order the cap is checked against
    for n, p in [(2, 3), (2, 5), (2, 7), (3, 2), (2, 11)]:
        order = p ** (n * (n - 1) // 2)
        for k in range(2, n + 1):
            order *= p**k - 1
        assert enumerate_group(n, p).order == order


def test_cap_is_enforced():
    with pytest.raises(GroupSizeCapExceeded):
        enumerate_group(2, 5, cap=50)


def test_table_structure(rng):
    table = enumerate_group(2, 5)
    # inverse map
    for _ in range(30):
        i = rng.randrange(table.order)
        assert table.mul(i, table.inverse[i]) == 0
    # conjugates land in the same class
    for _ in range(30):
        i = rng.randrange(table.order)
        c = rng.randrange(table.order)
        ci = table.inverse[c]
        conj = table.mul(table.mul(c, i), ci)
        assert table.class_of[conj] == table.class_of[i]
    # class_inverse really is the class of the inverses
    for cid, cls in enumerate(table.classes):
        for i in cls[:3]:
            assert table.class_of[table.inverse[i]] == table.class_inverse[cid]


def test_central_classes_of_sl2_f3():
    table = enumerate_group(2, 3)
    assert len(table.classes) == 7
    assert central_class_indices(table) == (0, 6)
    assert table.matrix(table.classes[6][0]) == SLMatrix.diagonal(GF(3), [2, 2])


def test_normally_generates():
    table = enumerate_group(2, 3)
    assert not normally_generates(table, (0,))  # identity class
    assert normally_generates(table, tuple(range(len(table.classes))))
    # the order-4 elements close up to the quaternion subgroup, not the group
    assert len(table.classes[3]) == 6
    assert not normally_generates(table, (3,))
    # a unipotent class does normally generate
    assert normally_generates(table, (1,))


def test_normally_generates_transvection_class_sl2_f5():
    table = enumerate_group(2, 5)
    cls = table.class_of[table.index_of(elementary(GF(5), 2, 1, 2, 1))]
    assert normally_generates(table, (cls,))


def test_norm_axioms_exhaustive_sl2_f3():
    table = enumerate_group(2, 3)
    nt = norm_ball_table(table, (1,))
    norms = nt.norms
    assert norms[0] == 0
    assert all(v > 0 for i, v in enumerate(norms) if i != 0)
    # letters have norm exactly 1
    for i in _letters(table, (1,)):
        assert norms[i] == 1
    # symmetry and conjugation invariance
    for i in range(table.order):
        assert norms[table.inverse[i]] == norms[i]
        for c in range(table.order):
            conj = table.mul(table.mul(c, i), table.inverse[c])
            assert norms[conj] == norms[i]
    # subadditivity over every pair
    for i in range(table.order):
        for j in range(table.order):
            assert norms[table.mul(i, j)] <= norms[i] + norms[j]


def test_bfs_agrees_with_fixed_point():
    # every class set of SL(2,3) and every set of at most 2 classes of
    # SL(2,5), generating or not: -1 in the same places, and a diameter
    # exactly when every element is reached
    seen = set()
    for n, p, max_k in [(2, 3, 7), (2, 5, 2)]:
        table = enumerate_group(n, p)
        m = len(table.classes)
        for class_ids in (s for k in range(1, max_k + 1) for s in combinations(range(m), k)):
            nt = norm_ball_table(table, class_ids)
            ref = norms_by_fixed_point(table, class_ids)
            assert nt.norms == ref
            if -1 in ref:
                assert nt.diameter is None and not normally_generates(table, class_ids)
            else:
                assert nt.diameter == max(ref) and normally_generates(table, class_ids)
            seen.add(nt.diameter is None)
    assert seen == {True, False}


def class_set_closures(table):
    """Every distinct class set closed under inverses; delta searches those
    without class 0."""
    m = len(table.classes)
    return sorted({
        tuple(sorted(set(s) | {table.class_inverse[c] for c in s}))
        for k in range(1, m + 1)
        for s in combinations(range(m), k)
    })


@pytest.mark.parametrize("n,p,every_closure", [
    (2, 3, True), (2, 5, True), (3, 2, True),
    (2, 7, False), (2, 11, False), (2, 13, False),
], ids=["SL2F3-closures", "SL2F5-closures", "SL3F2-closures",
        "SL2F7-classes", "SL2F11-classes", "SL2F13-classes"])
def test_class_search_agrees_with_element_search_and_fixed_point(n, p, every_closure, monkeypatch):
    # every class-set closure of the small groups and every single class of
    # the larger ones: the class-level norms equal the element-level ball
    # growth and the fixed-point relaxation, and each class the search
    # expands is multiplied by each letter exactly once; sphere 1 is read off
    # the letters, so the identity is never expanded, and a generating search
    # stops once every class is reached, so the last sphere is not expanded
    table = enumerate_group(n, p)
    mul = oracle._mul_mod
    products = 0

    def counting_mul(*args):
        nonlocal products
        products += 1
        return mul(*args)

    sets = class_set_closures(table) if every_closure else [(c,) for c in range(len(table.classes))]
    for class_ids in sets:
        products = 0
        with monkeypatch.context() as m:
            m.setattr(oracle, "_mul_mod", counting_mul)
            nt = norm_ball_table(table, class_ids)
        ref = norms_by_element_search(table, class_ids)
        assert nt.norms == ref == norms_by_fixed_point(table, class_ids)
        assert nt.diameter == (None if -1 in ref else max(ref))
        expanded = {table.class_of[i] for i, v in enumerate(ref) if v not in (-1, 0, nt.diameter)}
        assert products == len(expanded) * len(_letters(table, class_ids))


def test_norm_table_rejects_non_generating_classes():
    table = enumerate_group(2, 3)
    # total on class sets: a non-generating set has no diameter
    assert norm_ball_table(table, (3,)).diameter is None
    with pytest.raises(ValueError):
        norm_ball_table(table, (17,))


def test_norms_depend_only_on_class_closure():
    # adding the inverse class changes nothing: it is already a free letter
    # (mod 7, E_12(1) and E_12(-1) lie in distinct classes since -1 is not a square)
    table = enumerate_group(2, 7)
    cls = table.class_of[table.index_of(elementary(GF(7), 2, 1, 2, 1))]
    inv = table.class_inverse[cls]
    assert cls != inv
    assert norm_ball_table(table, (cls,)).norms == norm_ball_table(table, (cls, inv)).norms


def test_delta_sl2_f3():
    table = enumerate_group(2, 3)
    rep = delta(table)
    assert rep.delta == 3
    assert rep.delta_k[0] == 3  # a single class already achieves it
    assert rep.delta_k == sorted(rep.delta_k)  # non-decreasing in k
    assert all(d <= rep.delta for d in rep.delta_k)
    assert all(len(w) >= 1 for w in rep.witnesses)
    # every result is consistent: non-generating subsets have no diameter
    for r in rep.results:
        assert r.generates == (r.diameter is not None)


def test_delta_monotone_under_class_inclusion():
    table = enumerate_group(2, 3)
    rep = delta(table)
    diam = {tuple(r.class_ids): r.diameter for r in rep.results}
    for small, d_small in diam.items():
        if d_small is None:
            continue
        for big, d_big in diam.items():
            if d_big is None or not set(small) <= set(big):
                continue
            assert d_big <= d_small


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 2), (2, 7)])
def test_delta_agrees_with_the_search_over_every_subset(n, p):
    # delta leaves out class 0, the identity's: Delta and Delta_k are
    # unchanged, every row it lists is the reference row for that subset,
    # every reference row for S | {0} equals the row for S, and the witnesses
    # are the reference witnesses without class 0
    table = enumerate_group(n, p)
    m = len(table.classes)
    for k in (None, 2):
        rep, ref = delta(table, max_classes=k), delta_over_every_subset(table, max_classes=k)
        assert (rep.delta, rep.delta_k) == (ref.delta, ref.delta_k)
    rows = {r.class_ids: r for r in rep.results}
    assert len(rep.results) == len(rows) == 2 ** (m - 1) - 1
    assert list(rows) == [r.class_ids for r in ref.results if 0 not in r.class_ids]
    for r in ref.results:
        if r.class_ids == (0,):
            assert not r.generates and r.diameter is None
        elif r.class_ids[0] == 0:
            s = rows[r.class_ids[1:]]
            assert (r.generates, r.diameter) == (s.generates, s.diameter)
        else:
            assert rows[r.class_ids] == r
    assert rep.witnesses == [w for w in ref.witnesses if 0 not in w]


def test_ball_composition_bound_exhaustive_sl2_f3():
    # if every Y-letter has X-norm <= m, then norm_X <= m * norm_Y everywhere
    table = enumerate_group(2, 3)
    x_ids, y_ids = (1,), (1, 2, 4)
    nx = norm_ball_table(table, x_ids).norms
    ny = norm_ball_table(table, y_ids).norms
    m = max(nx[i] for i in _letters(table, y_ids))
    for g in range(table.order):
        assert nx[g] <= m * ny[g]


def test_delta_subset_cap():
    table = enumerate_group(2, 3)
    with pytest.raises(GroupSizeCapExceeded):
        delta(table, subset_cap=4)


def test_transvection_diameter_values():
    rep = transvection_diameter(2, 5)
    assert rep["diameter"] == 3  # frozen from the double-checked search
    assert rep["generates"] and rep["diameter"] >= 1
    assert rep["half_rank"] == 0.5
    assert "finite-field" in rep["note"]

    rep32 = transvection_diameter(3, 2)
    assert rep32["order"] == 168
    assert rep32["diameter"] == 3
    assert rep32["half_rank"] == 1.0


def test_transvection_diameter_sl3_f3():
    rep = transvection_diameter(3, 3)
    assert rep["order"] == 5616
    assert rep["diameter"] == 3


@pytest.mark.parametrize("p", [13, 17])
def test_certified_lengths_bound_the_exact_norms(p):
    # a certificate over X = {E_12(1)} is a word in conjugates of X, so its
    # length is at least the exact norm over the class of E_12(1)
    field = GF(p)
    rng = Random(p)
    table = enumerate_group(2, p)
    x = elementary(field, 2, 1, 2, 1)
    X = GeneratingSet.of([x])
    norms = norm_ball_table(table, (table.class_of[table.index_of(x)],)).norms
    for _ in range(20):
        g = table.matrix(rng.randrange(table.order))
        cert = decompose_full(g, X, rng)
        assert verify_certificate(cert)
        assert cert.length >= norms[table.index_of(g)]
