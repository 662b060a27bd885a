"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All equality checks are exact (the arithmetic is exact; there are no
tolerances to tune), and each criterion enforces its stated wall-clock limit.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from slword import (
    GF,
    QQ,
    GeneratingSet,
    SLMatrix,
    big_cell_decompose,
    bruhat_decompose,
    brute_force_elements,
    decompose_as_conjugates_of,
    decompose_full,
    decompose_via_unipotents,
    delta,
    elementary,
    enumerate_group,
    is_central,
    is_upper_triangular,
    is_upper_unitriangular,
    leading_principal_minors,
    mat_product,
    matrix_to_json,
    norm_ball_table,
    normally_generates,
    norms_by_fixed_point,
    random_sl,
    random_sl_bounded,
    sl2_coroot_factor,
    torus_factor,
    verify_certificate,
)


def finish(label, t0, limit):
    elapsed = time.time() - t0
    if elapsed >= limit:
        print(f"[FAIL] {label}: {elapsed:.2f}s exceeded the {limit}s limit")
        raise AssertionError(f"{label} too slow: {elapsed:.2f}s >= {limit}s")
    print(f"[PASS] {label}: {elapsed:.2f}s (limit {limit}s)")


def random_nonzero(field, rng):
    if field.p is None:
        num = rng.randint(1, 40) * rng.choice((1, -1))
        return Fraction(num, rng.randint(1, 12))
    return field.random_nonzero(rng)


def random_diagonal(field, n, rng):
    ds = [random_nonzero(field, rng) for _ in range(n - 1)]
    prod = field.one
    for d in ds:
        prod = prod * d
    return SLMatrix.diagonal(field, ds + [1 / prod])


def random_distinct_diagonal(field, n, rng):
    while True:
        t = random_diagonal(field, n, rng)
        ds = [t.rows[i][i] for i in range(n)]
        if all(ds[i] != ds[j] for i in range(n) for j in range(i + 1, n)):
            return t


def random_unitriangular(field, n, rng):
    one, zero = field.one, field.zero
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = field.random_scalar(rng, 6)
    return SLMatrix(field, rows)


def test_criterion_1_sl2_coroot_identity():
    t0 = time.time()
    rng = Random(101)
    cases = 0
    for field in (QQ, GF(5), GF(7), GF(11), GF(101)):
        for _ in range(500):
            x = random_nonzero(field, rng)
            a, b, c, d = sl2_coroot_factor(x)
            prod = mat_product(
                [
                    elementary(field, 2, 1, 2, a),
                    elementary(field, 2, 2, 1, b),
                    elementary(field, 2, 1, 2, c),
                    elementary(field, 2, 2, 1, d),
                ]
            )
            assert prod == SLMatrix.diagonal(field, [x, 1 / x])
            cases += 1
    assert cases == 2500
    finish("1. coroot four-factor identity (500 per field)", t0, 1.0)


def test_criterion_2_torus_factorization():
    t0 = time.time()
    rng = Random(102)
    cases = 0
    for field in (QQ, GF(11)):
        for n in range(2, 7):
            for _ in range(20):
                t = random_diagonal(field, n, rng)
                factors = torus_factor(t)
                assert len(factors) == 4 * (n - 1)
                assert mat_product(factors) == t
                for f in factors:
                    off = [
                        (i, j)
                        for i in range(n)
                        for j in range(n)
                        if i != j and f.rows[i][j]
                    ]
                    assert len(off) <= 1
                    if off:
                        i, j = off[0]
                        assert abs(i - j) == 1
                cases += 1
    assert cases == 200
    finish("2. torus factorization (200 samples, n=2..6, Q and F_11)", t0, 5.0)


def test_criterion_3_twisted_conjugation_round_trip():
    t0 = time.time()
    rng = Random(103)
    from slword import solve_twisted_conjugation, unipotent_as_two_conjugates

    for n in range(2, 6):
        for field in (QQ, GF(13)):
            for _ in range(100):
                d = random_distinct_diagonal(field, n, rng)
                u = random_unitriangular(field, n, rng)
                v = solve_twisted_conjugation(d, u)
                assert mat_product([v, d, v.inverse(), d.inverse()]) == u
                cert = unipotent_as_two_conjugates(d, u)
                assert cert.length == 2
                assert verify_certificate(cert)
    finish("3. twisted-conjugation round trip (200 per n=2..5)", t0, 5.0)


def test_criterion_4_seven_blocks_and_fourteen_certificates():
    t0 = time.time()
    rng = Random(104)
    prime_diag = {
        2: [2, Fraction(1, 2)],
        3: [2, 3, Fraction(1, 6)],
        4: [2, 3, 5, Fraction(1, 30)],
        5: [2, 3, 5, 7, Fraction(1, 210)],
    }
    for n in range(2, 6):
        t = SLMatrix.diagonal(QQ, prime_diag[n])
        for _ in range(25):
            g = random_sl_bounded(QQ, n, rng, bound=10)
            assert all(
                abs(e.numerator) <= 10 and e.denominator <= 10 for row in g.rows for e in row
            )
            blocks = decompose_via_unipotents(g, rng, budget=10_000)
            assert len(blocks) == 7
            assert all(is_upper_unitriangular(u) for _, u in blocks)
            assert mat_product(
                [mat_product([c, u, c.inverse()]) for c, u in blocks]
            ) == g
            cert = decompose_as_conjugates_of(g, t, rng, budget=10_000)
            assert cert.length <= 14
            assert verify_certificate(cert)
    finish("4. seven-block and length-14 certificates (100 targets)", t0, 60.0)


def test_criterion_5_full_pipeline():
    t0 = time.time()
    rng = Random(105)
    for field in (QQ, GF(11)):
        for n in (2, 3):
            while True:
                x = random_sl_bounded(field, n, rng)
                if not is_central(x):
                    break
            X = GeneratingSet.of([x])
            for _ in range(25):
                g = random_sl(field, n, rng)
                cert = decompose_full(g, X, rng, budget=10_000)
                assert cert.length <= 56 * (n - 1)
                assert cert.base == X.elements
                assert verify_certificate(cert)
    finish("5. full pipeline, 25 targets per (field, n) at bound 56(n-1)", t0, 120.0)


def test_criterion_6_bruhat_exhaustive():
    t0 = time.time()
    for p in (3, 5):
        field = GF(p)
        for e in sorted(brute_force_elements(2, p)):
            g = SLMatrix(field, [[e[0], e[1]], [e[2], e[3]]])
            bf = bruhat_decompose(g)
            assert is_upper_unitriangular(bf.u)
            assert is_upper_triangular(bf.b)
            assert mat_product([bf.u, bf.w_rep, bf.b]) == g
            cell = big_cell_decompose(g)
            minors_ok = all(bool(m) for m in leading_principal_minors(g))
            assert (cell is not None) == minors_ok
            if cell is not None:
                assert mat_product([cell.lower, cell.diag, cell.upper]) == g
    finish("6. exhaustive Bruhat/big-cell over SL_2(F_3) and SL_2(F_5)", t0, 5.0)


def test_criterion_7_oracle_exactness():
    t0 = time.time()
    reports = {}
    for n, p, order in ((2, 3, 24), (2, 5, 120), (3, 2, 168)):
        table = enumerate_group(n, p)
        direct = brute_force_elements(n, p)
        assert table.order == order == len(direct)
        assert set(table.elements) == direct

        # norm axioms, exhaustively, for a generating single class
        cls = next(
            c for c in range(len(table.classes))
            if len(table.classes[c]) > 1 and normally_generates(table, (c,))
        )
        norms = norm_ball_table(table, (cls,)).norms
        assert norms[0] == 0 and all(v > 0 for v in norms[1:])
        for i in range(table.order):
            assert norms[table.inverse[i]] == norms[i]
        for i in range(table.order):
            for j in range(table.order):
                assert norms[table.mul(i, j)] <= norms[i] + norms[j]
        for i in range(table.order):
            for c in range(table.order):
                conj = table.mul(table.mul(c, i), table.inverse[c])
                assert norms[conj] == norms[i]

        rep = delta(table)
        reports[(n, p)] = rep

    # independent fixed-point recomputation for every generating subset of SL_2(F_3)
    table3 = enumerate_group(2, 3)
    for r in reports[(2, 3)].results:
        if not r.generates:
            continue
        nt = norm_ball_table(table3, r.class_ids)
        assert nt.norms == norms_by_fixed_point(table3, r.class_ids)
        assert nt.diameter == r.diameter

    # frozen exact values, cross-checked by the two independent searches
    assert reports[(2, 3)].delta == 3 and reports[(2, 3)].delta_k[0] == 3
    assert reports[(2, 5)].delta == 5 and reports[(2, 5)].delta_k[0] == 5
    assert reports[(3, 2)].delta == 3 and reports[(3, 2)].delta_k[0] == 3
    summary = ", ".join(
        f"SL({n},{p}): delta={rep.delta}, delta_1={rep.delta_k[0]}"
        for (n, p), rep in sorted(reports.items())
    )
    print(f"  oracle values: {summary}")
    finish("7. oracle exactness (orders, axioms, delta, delta_1)", t0, 300.0)


def test_criterion_8_certified_lengths_bound_exact_norms():
    t0 = time.time()
    rng = Random(108)
    field = GF(11)
    table = enumerate_group(2, 11, cap=10_000)
    assert table.order == 1320
    t = SLMatrix.diagonal(field, [2, 6])
    cls = table.class_of[table.index_of(t)]
    norms = norm_ball_table(table, (cls,)).norms
    for _ in range(50):
        g = table.matrix(rng.randrange(table.order))
        cert = decompose_as_conjugates_of(g, t, rng, budget=10_000)
        assert verify_certificate(cert)
        assert cert.length >= norms[table.index_of(g)]
    finish("8. certified lengths >= exact norms on SL_2(F_11), 50 targets", t0, 120.0)


def test_criterion_9_certify_is_deterministic(tmp_path, subprocess_env):
    t0 = time.time()
    tgt = tmp_path / "g.json"
    gen = tmp_path / "t.json"
    tgt.write_text(json.dumps(matrix_to_json(SLMatrix(QQ, [[1, 2], [1, 3]]))))
    gen.write_text(json.dumps(matrix_to_json(SLMatrix.diagonal(QQ, [2, Fraction(1, 2)]))))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"cert{run}.json"
        r = subprocess.run(
            [
                sys.executable, "-m", "slword", "certify",
                "--field", "Q", "--n", "2",
                "--target", str(tgt), "--generator", str(gen),
                "--seed", "2024", "--out", str(out),
            ],
            capture_output=True,
            env=subprocess_env,
        )
        assert r.returncode == 0, r.stderr.decode()
        outs.append((out.read_bytes(), r.stdout))
    assert outs[0][0] == outs[1][0], "certificate files differ between runs"
    assert outs[0][1] == outs[1][1], "stdout differs between runs"
    finish("9. byte-identical certificates across fresh processes", t0, 60.0)
