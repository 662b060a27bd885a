"""Reference matrix arithmetic on per-entry field scalars.

These are the scalar routines ``slword.matrix`` used before it moved to flat
int kernels: rows are tuples of ``Fraction`` or ``Fp`` objects and every
operation goes through the scalars' own operators.  They are slow but
obviously correct, and ``test_kernel.py`` checks the int kernels against them.

``norms_by_element_search`` is the oracle's breadth-first search as it ran
before it moved to conjugacy classes: it grows the ball element by element,
and ``test_oracle.py`` checks the class-level search against it.
``delta_over_every_subset`` is ``delta`` as it ran before it left out class
0: it searches every class subset, the identity's class included, each from
the identity, and ``test_oracle.py`` checks ``delta`` against it.

``schur_in_basis`` is one level of Sourour's basis, computed by an explicit
change of basis, and ``level_choices_by_brute_force`` lists every (x, f) a
level over a small F_p could take; ``test_decompose.py`` checks the level
rule of ``decompose._choices`` against them.

``diagonalize_in_borel`` and ``twisted_solve`` are the two graded
recurrences ``slword.unipotent`` ran before its one solve in the Borel, and
``two_letter_conjugators_by_products`` is the two-letter route's conjugators
as they were built from them, through three diagonalizations and two
unitriangular inverses; ``test_unipotent.py`` checks the solve against them.
``weyl_representative_by_reduced_word`` is the product of simple reflection
representatives along the lexicographically smallest reduced word, which
``test_rootdata.py`` checks the closed form of ``weyl_representative``
against.

``evaluate_by_products`` is ``evaluate_certificate`` as it multiplied before
the low-rank letters: each letter c x^e c^-1 as two full products, with the
inverse of c and of x; ``ball_sample_target_by_products`` is the ball
sampler's target formed the same way, from the same draws.
``test_certificate.py`` and ``test_decompose.py`` check the low-rank
evaluation and sampler against them, on the dense elements with
rank(x - 1) = rho of ``element_of_rank`` and the conjugators of
``dense_conjugator``, which have denominators != 1 over Q.

``conjugate`` and ``commutator`` are the group words the tests use, and
``coroot`` is the coroot c_i(a) = diag(1, .., a, a^-1, .., 1).
``torus_factor_by_conjugation`` is ``torus_factor`` as it conjugated two of
its slots by a coroot product; ``test_torus.py`` checks the closed form
against it.
"""

from fractions import Fraction
from itertools import combinations, product

from slword.bruhat import big_cell_decompose
from slword.decompose import _random_sl_and_inverse, _sourour_basis, random_sl
from slword.fields import Field
from slword.matrix import SLMatrix, _mul_mod, mat_product
from slword.oracle import DeltaReport, GroupTable, SubsetResult, _letters
from slword.rootdata import elementary, longest_element_rep
from slword.torus import coroot_coordinates


def mul_rows(a, b, field: Field):
    n = len(a)
    zero = field.zero
    out = []
    for i in range(n):
        arow = a[i]
        acc = [zero] * n
        for k in range(n):
            aik = arow[k]
            if not aik:
                continue
            brow = b[k]
            for j in range(n):
                bkj = brow[j]
                if bkj:
                    acc[j] = acc[j] + aik * bkj
        out.append(tuple(acc))
    return tuple(out)


def det_rows(rows, field: Field):
    n = len(rows)
    m = [list(r) for r in rows]
    det = field.one
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return field.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pval = m[col][col]
        det = det * pval
        for r in range(col + 1, n):
            f = m[r][col] / pval
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def inverse_rows(rows, field: Field):
    n = len(rows)
    m = [list(r) for r in rows]
    one, zero = field.one, field.zero
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        pval = m[col][col]
        if pval != one:
            m[col] = [x / pval for x in m[col]]
            inv[col] = [x / pval for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(r) for r in inv)


def random_sl_rows(field: Field, n, rng, factors=None, bound=2):
    """``random_sl`` on scalar rows: the same draws, in the same order, as
    column operations M E_ij(x) on one identity."""
    if factors is None:
        factors = n + 2
    rows = [[field.one if r == c else field.zero for c in range(n)] for r in range(n)]
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            j = i % n + 1
        x = field.random_nonzero(rng, bound)
        for row in rows:
            row[j - 1] += x * row[i - 1]
    return tuple(tuple(r) for r in rows)


def ldu_rows(rows, field: Field):
    """(lower, diag, upper) rows of the LDU factorization by elimination
    without pivoting, or None when a pivot vanishes."""
    n = len(rows)
    m = [list(r) for r in rows]
    one, zero = field.one, field.zero
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = m[k][k]
        if not piv:
            return None
        for i in range(k + 1, n):
            f = m[i][k] / piv
            if f:
                lower[i][k] = f
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    diag = [[m[i][i] if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[m[i][j] / m[i][i] if j > i else (one if i == j else zero) for j in range(n)] for i in range(n)]
    return lower, diag, upper


def rank_rows(rows):
    """Rank of a matrix of field scalars, by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def evaluate_by_products(cert):
    """The word's product, each letter c x^e c^-1 as full products with the
    inverses of c and, for e = -1, of x."""
    if not cert.word:
        return SLMatrix.identity(cert.field, cert.n)
    chain = []
    for l in cert.word:
        x = cert.base[l.base_index]
        chain.extend([l.conjugator, x if l.exponent == 1 else x.inverse(), l.conjugator.inverse()])
    return mat_product(chain)


def dense_conjugator(field: Field, n, rng):
    """A random SL_n element; over Q its entries have denominators != 1."""
    q = Fraction(rng.randint(2, 9), rng.randint(2, 9)) if field.p is None else rng.randrange(2, field.p)
    d = SLMatrix.diagonal(field, [q, 1 / field.scalar(q)] + [1] * (n - 2))
    return mat_product([random_sl(field, n, rng), d, random_sl(field, n, rng, factors=2 * n)])


def element_of_rank(field: Field, n, rho, rng):
    """c y c^-1 with rank(y - 1) = rho, 0 <= rho <= n, for a dense c.

    For rho < n, y - 1 is strictly upper triangular and nonzero only in its
    first rho rows, with (i, i + 1) entries != 0 there, so of rank rho.  For
    rho = n, y is upper triangular with no diagonal entry 1: (a, a^-1) pairs,
    led by (a, a, a^-2) for odd n, with a = 2, whose square is not 1 in any
    field the tests use."""
    one, zero = field.one, field.zero
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    if rho < n:
        for i in range(rho):
            rows[i][i + 1] = field.scalar(rng.randrange(1, 5))
            for j in range(i + 2, n):
                rows[i][j] = field.scalar(rng.randrange(0, 5))
    else:
        a = field.scalar(2)
        diag = [a, a, 1 / (a * a)] if n % 2 else []
        while len(diag) < n:
            diag += [a, 1 / a]
        for i in range(n):
            rows[i][i] = diag[i]
            for j in range(i + 1, n):
                rows[i][j] = field.scalar(rng.randrange(0, 5))
    c = dense_conjugator(field, n, rng)
    return mat_product([c, SLMatrix(field, rows), c.inverse()])


def ball_sample_target_by_products(X, rng, radius):
    """The target of ``decompose._sample_ball_element`` from the same draws:
    r blocks (h x h^-1)(k x^-1 k^-1) multiplied out in full."""
    field, n = X.field, X.n
    chain = []
    for _ in range(radius):
        x = X.elements[rng.choice(X.noncentral_indices)]
        h, h_inv = _random_sl_and_inverse(field, n, rng)
        k, k_inv = _random_sl_and_inverse(field, n, rng)
        chain.extend([h, x, h_inv, k, x.inverse(), k_inv])
    return mat_product(chain)


def commutator(g, h):
    """g h g^-1 h^-1."""
    return mat_product([g, h, g.inverse(), h.inverse()])


def conjugate(g, c):
    """c g c^-1."""
    return mat_product([c, g, c.inverse()])


def coroot(field: Field, n: int, i: int, a) -> SLMatrix:
    """diag(1, .., a, a^-1, .., 1) with a at position i, 1 <= i <= n-1."""
    if not (1 <= i <= n - 1):
        raise ValueError(f"coroot index {i} out of range for n={n}")
    av = field.scalar(a)
    if not av:
        raise ValueError("coroot parameter must be nonzero")
    entries = [field.one] * n
    entries[i - 1] = av
    entries[i] = 1 / av
    return SLMatrix.diagonal(field, entries)


def torus_factor_by_conjugation(t):
    """``torus_factor`` with x_i and u_i conjugated by the coroot product
    s_i = c_1(a_1) ... c_{i-1}(a_{i-1}) rather than rescaled."""
    field, n = t.field, t.n
    coords = coroot_coordinates(t)
    ident = SLMatrix.identity(field, n)
    xs, us, vs, ws = [], [], [], []
    s = ident
    for i in range(1, n):
        a = coords[i - 1]
        if a == field.one:
            x_slot = u_slot = v_slot = w_slot = ident
        else:
            ainv = a ** -1
            x_slot = elementary(field, n, i + 1, i, 1 - ainv)
            u_slot = elementary(field, n, i, i + 1, -field.one)
            v_slot = elementary(field, n, i + 1, i, 1 - a)
            w_slot = elementary(field, n, i, i + 1, ainv)
        xs.append(conjugate(x_slot, s))
        us.append(conjugate(u_slot, s))
        vs.append(v_slot)
        ws.append(w_slot)
        s = s * coroot(field, n, i, a)
    return xs[::-1] + us[::-1] + vs + ws


def central_class_indices(table: GroupTable):
    """Positions of the classes of one element each."""
    return tuple(i for i, cls in enumerate(table.classes) if len(cls) == 1)


def is_lower_unitriangular(g) -> bool:
    """Ones on the diagonal and zeros above it, read off the scalar rows."""
    rows, f = g.rows, g.field
    return all(rows[i][j] == (f.one if i == j else f.zero) for i in range(g.n) for j in range(i, g.n))


def norms_by_element_search(table: GroupTable, class_ids):
    """Word norms over the chosen classes and their inverses (-1 where never
    reached), multiplying every element of each sphere by every letter."""
    letters = [table.elements[i] for i in _letters(table, class_ids)]
    n, p = table.n, table.p
    norms = [-1] * table.order
    norms[0] = 0
    frontier = [table.elements[0]]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for e in frontier:
            for l in letters:
                prod = _mul_mod(e, l, n, p)
                i = table.index[prod]
                if norms[i] == -1:
                    norms[i] = dist
                    nxt.append(prod)
        frontier = nxt
    return norms


def diameter_from_identity(table: GroupTable, class_ids):
    """The class-level ball growth with sphere 1 found by multiplying the
    identity by every letter; None when the letters do not generate."""
    letters = [table.elements[i] for i in _letters(table, class_ids)]
    n, p = table.n, table.p
    cnorm = [-1] * len(table.classes)
    cnorm[0] = 0
    frontier = [0]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for c in frontier:
            x = table.elements[table.classes[c][0]]
            for l in letters:
                d = table.class_of[table.index[_mul_mod(x, l, n, p)]]
                if cnorm[d] == -1:
                    cnorm[d] = dist
                    nxt.append(d)
        frontier = nxt
    return None if -1 in cnorm else max(cnorm)


def delta_over_every_subset(table: GroupTable, max_classes=None) -> DeltaReport:
    """Delta and Delta_k over all 2^m - 1 nonempty class subsets, with a row
    for each and class 0 included."""
    m = len(table.classes)
    kmax = m if max_classes is None else min(max_classes, m)
    results = []
    cache = {}
    best = 0
    best_k = [0] * kmax
    witnesses = []
    for k in range(1, m + 1):
        for subset in combinations(range(m), k):
            key = tuple(sorted(set(subset) | {table.class_inverse[c] for c in subset}))
            if key not in cache:
                cache[key] = diameter_from_identity(table, key)
            diam = cache[key]
            results.append(SubsetResult(class_ids=subset, generates=diam is not None, diameter=diam))
            if diam is None:
                continue
            if diam > best:
                best, witnesses = diam, [subset]
            elif diam == best:
                witnesses.append(subset)
            for kk in range(k - 1, kmax):
                if diam > best_k[kk]:
                    best_k[kk] = diam
    return DeltaReport(delta=best, delta_k=best_k, witnesses=witnesses, results=results)


def schur_in_basis(a, x, f, field: Field):
    """The Schur complement of the (1,1) entry of the matrix a in the basis
    (x, e_i - (f_i / f_p) e_p for i != p) of x and ker f, p the first index
    with f_p != 0, as P^-1 a P with P inverted by elimination."""
    m = len(a)
    p = next(i for i in range(m) if f[i])
    cols = [list(x)]
    for i in range(m):
        if i != p:
            b = [field.zero] * m
            b[i], b[p] = field.one, -f[i] / f[p]
            cols.append(b)
    basis = tuple(tuple(c[r] for c in cols) for r in range(m))
    b = mul_rows(mul_rows(inverse_rows(basis, field), a, field), basis, field)
    return [[b[i][j] - b[i][0] * b[0][j] / b[0][0] for j in range(1, m)] for i in range(1, m)]


def is_scalar_rows(a) -> bool:
    return all(a[i][j] == (a[0][0] if i == j else 0) for i in range(len(a)) for j in range(len(a)))


def level_choices_by_brute_force(a, alpha, field: Field):
    """Every (x, f) over F_p with x, ax independent, f(x) = 1 and
    f(ax) = alpha, each with whether its Schur complement is scalar, in order
    of x.  x runs over the vectors whose first nonzero entry is 1: (s x, f / s)
    gives the same basis up to scaling its first vector, so the same
    complement."""
    p, m = field.p, len(a)
    rows = [[e.val for e in row] for row in a]
    for xs in product(range(p), repeat=m):
        if not any(xs) or xs[next(i for i in range(m) if xs[i])] != 1:
            continue
        ys = [sum(map(int.__mul__, row, xs)) % p for row in rows]
        if all((xs[i] * ys[k] - xs[k] * ys[i]) % p == 0 for i in range(m) for k in range(i + 1, m)):
            continue  # x is an eigenvector
        for fs in product(range(p), repeat=m):
            if (sum(map(int.__mul__, fs, xs)) % p == 1
                    and sum(map(int.__mul__, fs, ys)) % p == alpha.val):
                x, f = [field.scalar(v) for v in xs], [field.scalar(v) for v in fs]
                yield x, f, is_scalar_rows(schur_in_basis(a, x, f, field))


def diagonalize_in_borel(t):
    """v upper unitriangular with v t v^-1 = diag(t), from v t = diag(t) v:
    v_ij = (sum_{i<=k<j} v_ik t_kj) / (t_ii - t_jj)."""
    field, n, trows = t.field, t.n, t.rows
    one, zero = field.one, field.zero
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = zero
            for k in range(i, j):
                acc = acc + v[i][k] * trows[k][j]
            v[i][j] = acc / (trows[i][i] - trows[j][j])
    return SLMatrix(field, v)


def twisted_solve(d, u):
    """v upper unitriangular with v d v^-1 d^-1 = u for a regular diagonal d:
    v_ij (d_j - d_i) = u_ij d_j + sum_{i<k<j} u_ik d_k v_kj."""
    field, n, drows, urows = d.field, d.n, d.rows, u.rows
    one, zero = field.one, field.zero
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = urows[i][j] * drows[j][j]
            for k in range(i + 1, j):
                acc = acc + urows[i][k] * drows[k][k] * v[k][j]
            v[i][j] = acc / (drows[j][j] - drows[i][i])
    return SLMatrix(field, v)


def two_letter_conjugators_by_products(g, t):
    """(c_1, c_2) of the two-letter route for a non-central g over t, through
    the common diagonal: v_1 (n_0^-1 L n_0) v_1^-1 = v_t t v_t^-1 and
    v_2 U v_2^-1 = v_t t^-1 v_t^-1."""
    field, n = g.field, g.n
    d = [row[i] for i, row in enumerate(t.rows)]
    beta = d[::-1]
    gamma = [1 / x for x in d]
    s = _sourour_basis(g, [b * c for b, c in zip(beta, gamma)])
    cell = big_cell_decompose(mat_product([s.inverse(), g, s]))
    lower = cell.lower * SLMatrix.diagonal(field, beta)
    upper = SLMatrix.diagonal(field, gamma) * cell.upper
    n0 = longest_element_rep(field, n)
    vt = diagonalize_in_borel(t)
    v1 = diagonalize_in_borel(mat_product([n0.inverse(), lower, n0]))
    v2 = diagonalize_in_borel(upper)
    return mat_product([s, n0, v1.inverse(), vt]), mat_product([s, v2.inverse(), vt])


def identity_perm(n):
    return tuple(range(n))


def inverse_perm(w):
    inv = [0] * len(w)
    for j, i in enumerate(w):
        inv[i] = j
    return tuple(inv)


def simple_reflection_rep(field: Field, n, i):
    """Representative of s_i: the [[0,1],[-1,0]] block at rows/cols (i, i+1)."""
    one, zero = field.one, field.zero
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    rows[i - 1][i - 1] = rows[i][i] = zero
    rows[i - 1][i] = one
    rows[i][i - 1] = -one
    return SLMatrix(field, rows)


def reduced_word(w):
    """Lexicographically smallest reduced word for w, 1-based indices.

    Greedy: repeatedly pick the smallest i with a left descent, i.e. with
    value i appearing to the right of value i+1, and strip s_i off the left.
    Yields the word (i_1, ..., i_N) with w = s_{i_1} ... s_{i_N}.
    """
    w = list(w)
    n = len(w)
    pos = [0] * n
    for j, v in enumerate(w):
        pos[v] = j
    word = []
    while True:
        i = next((i for i in range(n - 1) if pos[i] > pos[i + 1]), None)
        if i is None:
            return word
        word.append(i + 1)
        # strip s_i on the left: swap the values i and i+1 in one-line form
        w[pos[i]], w[pos[i + 1]] = w[pos[i + 1]], w[pos[i]]
        pos[i], pos[i + 1] = pos[i + 1], pos[i]


def weyl_representative_by_reduced_word(field: Field, w):
    """The product of simple reflection representatives along
    ``reduced_word(w)``."""
    n = len(w)
    return mat_product([SLMatrix.identity(field, n)]
                       + [simple_reflection_rep(field, n, i) for i in reduced_word(w)])
