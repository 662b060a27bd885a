"""Brute-force ground truth for small finite SL_n(F_p): full enumeration,
conjugacy classes, exact conjugate-word norms, diameters and the invariants
Delta / Delta_k.

Elements are flat row-major tuples of residues, as :class:`SLMatrix` stores
them over F_p, so the breadth-first searches run on the matrix module's flat
int kernels (a product reduced mod p, and the integer determinant and
inverse of the residues, reduced once); :class:`SLMatrix` objects appear only
at the API boundary.

Word norms here are with respect to a set of conjugacy classes: the letter
set of a class selection is the union of the chosen classes and their inverse
classes (a word may use conjugates of generators and of their inverses), and
the norm of g is the least number of letters multiplying to g.  The letters
are closed under conjugation, so each sphere is a union of classes and
gxg^-1 * letters = g (x * letters) g^-1: ``norm_ball_table`` reads sphere 1
off the letters' classes, grows the ball over classes, one representative
each, and stops once every class is reached.  ``norms_by_fixed_point``, a
deliberately different Bellman-style relaxation over the whole group, exists
purely to cross-check it.

Delta is computable for a finite group because a norm only depends on which
conjugacy classes the generating set touches: the supremum over all finite
normally generating sets is a maximum over the finitely many class subsets;
``delta`` leaves out class 0, the identity's, which adds no letter.
Results over finite fields are consistency evidence for the factorization
pipeline, not statements about infinite fields; reports label them as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .fields import GF
from .matrix import SLMatrix, _det_int, _inverse_mod, _mul_mod
from .rootdata import elementary, standard_generators


FINITE_FIELD_NOTE = (
    "finite-field analog computed by exhaustive search; "
    "not a statement about groups over infinite fields"
)


class GroupSizeCapExceeded(RuntimeError):
    pass


@dataclass
class GroupTable:
    """Complete enumeration of SL_n(F_p) with conjugacy data.

    elements are in breadth-first order from the identity (element 0), so the
    table is deterministic for a given (n, p).
    """

    n: int
    p: int
    elements: list[tuple]
    index: dict  # tuple -> position
    inverse: list[int]  # position of the inverse
    classes: list[tuple[int, ...]]  # sorted member positions per class
    class_of: list[int]
    class_inverse: list[int]  # class of the inverses of a class

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.index[_mul_mod(self.elements[i], self.elements[j], self.n, self.p)]

    def matrix(self, i: int) -> SLMatrix:
        field, n = GF(self.p), self.n
        e = self.elements[i]
        return SLMatrix(field, [[e[r * n + c] for c in range(n)] for r in range(n)])

    def index_of(self, g: SLMatrix) -> int:
        if g.field.p != self.p or g.n != self.n:
            raise ValueError("dimension/field mismatch")
        return self.index[g.entries]


def _require_subsets(m: int, subset_cap: int, at_least: str = "") -> None:
    if m - 1 >= max(subset_cap, 0).bit_length():
        raise GroupSizeCapExceeded(f"{at_least}2^{m - 1} class subsets exceed the cap of {subset_cap}")


def require_delta_subsets(n: int, p: int, subset_cap: int) -> None:
    """Refuse an over-cap ``delta`` before enumerating, from the class count
    m of SL(n, p): p + 4 for n = 2, p odd, and 3 for SL(2, 2); for n = 3
    at least p^2 + p, the count when 3 does not divide p - 1 (p^2 + p + 8
    when it does); for n >= 4 at least p^(n-1), one class per
    characteristic polynomial, as the companion matrix of each monic
    degree-n polynomial with constant term (-1)^n lies in SL_n."""
    GF(p)  # a bad p stays an input error
    if n == 2:
        _require_subsets(p + 4 if p > 2 else 3, subset_cap)
    elif n == 3:
        _require_subsets(p * p + p, subset_cap, "at least ")
    elif n > 3:
        # p^(n-1), multiplied out only until 2^(m-1) is over the cap
        m, bits = 1, max(subset_cap, 0).bit_length()
        for _ in range(n - 1):
            m *= p
            if m - 1 >= bits:
                break
        _require_subsets(m, subset_cap, "at least ")


def enumerate_group(n: int, p: int, cap: int = 10**6) -> GroupTable:
    """Enumerate SL_n(F_p) by closure from the elementary generators
    E_{i,i+1}(1), E_{i+1,i}(1).  An order past ``cap``, known as
    prod_{k=2..n} p^(k-1) (p^k - 1), raises GroupSizeCapExceeded at once."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    field, order = GF(p), 1
    for k in range(2, n + 1):
        order *= p ** (k - 1) * (p**k - 1)
        if order > cap:
            raise GroupSizeCapExceeded(f"SL_{n}(F_{p}) exceeds the cap of {cap} elements")
    gens = [g.entries for g in standard_generators(field, n)]
    ident = tuple(1 if i == j else 0 for i in range(n) for j in range(n))

    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = _mul_mod(e, g, n, p)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt

    inverse = [index[_inverse_mod(e, n, p)] for e in elements]

    # conjugacy classes: orbits under conjugation by the generators
    class_of = [-1] * len(elements)
    classes = []
    gen_pairs = [(g, _inverse_mod(g, n, p)) for g in gens]
    for start in range(len(elements)):
        if class_of[start] != -1:
            continue
        cid = len(classes)
        orbit = [start]
        class_of[start] = cid
        queue = [start]
        while queue:
            e = elements[queue.pop()]
            for g, gi in gen_pairs:
                conj = _mul_mod(_mul_mod(g, e, n, p), gi, n, p)
                ci = index[conj]
                if class_of[ci] == -1:
                    class_of[ci] = cid
                    orbit.append(ci)
                    queue.append(ci)
        classes.append(tuple(sorted(orbit)))

    class_inverse = [class_of[inverse[cls[0]]] for cls in classes]
    return GroupTable(
        n=n,
        p=p,
        elements=elements,
        index=index,
        inverse=inverse,
        classes=classes,
        class_of=class_of,
        class_inverse=class_inverse,
    )


def brute_force_elements(n: int, p: int) -> set[tuple]:
    """All determinant-1 matrices by sheer enumeration of every entry tuple.

    Exponential in n^2; only sane for the tiny groups the tests cross-check.
    Kept deliberately independent of :func:`enumerate_group`.
    """
    return {e for e in product(range(p), repeat=n * n) if _det_int(e, n) % p == 1}


def _letters(table: GroupTable, class_ids) -> list[int]:
    """Element positions of the letter set: chosen classes and their inverse
    classes, identity excluded (it never shortens a word)."""
    ids = set()
    for c in class_ids:
        if not 0 <= c < len(table.classes):
            raise ValueError(f"no conjugacy class {c}")
        ids.add(c)
        ids.add(table.class_inverse[c])
    return sorted(i for c in ids for i in table.classes[c] if i != 0)


@dataclass
class NormTable:
    class_ids: tuple[int, ...]
    norms: list[int]  # -1 where the letters never reach
    diameter: int | None  # None when the classes do not normally generate


def norm_ball_table(table: GroupTable, class_ids) -> NormTable:
    """Word norms over the chosen classes and their inverses, by ball growth
    over classes, one representative each: gxg^-1 * letters = g (x * letters)
    g^-1 as the letters are conjugation-closed.  Sphere 1 is the letters'
    classes, found with no product.  It stops once no class is unreached, so
    the last sphere, at the diameter, is not expanded; the diameter is None
    if the frontier empties first.  Only an unknown class index raises
    ``ValueError``."""
    letter_ids = _letters(table, class_ids)
    letters = [table.elements[i] for i in letter_ids]
    frontier = sorted({table.class_of[i] for i in letter_ids})
    n, p = table.n, table.p
    cnorm = [-1] * len(table.classes)
    cnorm[0] = 0  # class 0 is the identity's
    for c in frontier:
        cnorm[c] = 1
    dist = 1
    unreached = len(cnorm) - 1 - len(frontier)
    while frontier and unreached:
        dist += 1
        nxt = []
        for c in frontier:
            x = table.elements[table.classes[c][0]]
            for l in letters:
                d = table.class_of[table.index[_mul_mod(x, l, n, p)]]
                if cnorm[d] == -1:
                    cnorm[d] = dist
                    nxt.append(d)
        unreached -= len(nxt)
        frontier = nxt
    norms = [cnorm[c] for c in table.class_of]
    diameter = None if unreached else dist
    return NormTable(class_ids=tuple(sorted(set(class_ids))), norms=norms, diameter=diameter)


def normally_generates(table: GroupTable, class_ids) -> bool:
    """True iff the chosen classes (with inverses) generate the whole group;
    as class unions are conjugation-closed, the subgroup they generate is
    normal and equals the normal closure."""
    return norm_ball_table(table, class_ids).diameter is not None


def norms_by_fixed_point(table: GroupTable, class_ids) -> list[int]:
    """Independent recomputation of the norms: initialize the letters at 1 and
    the identity at 0, then relax norm(g*l) <= norm(g) + 1 over the whole
    group until nothing changes."""
    letter_ids = _letters(table, class_ids)
    INF = table.order + 1
    norms = [INF] * table.order
    norms[0] = 0
    for l in letter_ids:
        norms[l] = 1
    changed = True
    while changed:
        changed = False
        for i in range(table.order):
            if norms[i] == INF:
                continue
            cand = norms[i] + 1
            for l in letter_ids:
                j = table.mul(i, l)
                if cand < norms[j]:
                    norms[j] = cand
                    changed = True
    return [v if v <= table.order else -1 for v in norms]


@dataclass
class SubsetResult:
    class_ids: tuple[int, ...]
    generates: bool
    diameter: int | None


@dataclass
class DeltaReport:
    delta: int
    delta_k: list[int]  # delta_k[k-1] = max diameter over generating subsets of <= k classes
    witnesses: list[tuple[int, ...]]  # subsets achieving delta
    results: list[SubsetResult]  # one row per subset of classes 1..m-1


def delta(table: GroupTable, max_classes: int | None = None, subset_cap: int = 2**20) -> DeltaReport:
    """Exact Delta and Delta_k over the 2^(m-1) - 1 nonempty subsets of
    classes 1..m-1; class 0, the identity's, adds no letter.  Inverse classes
    are free, so each subset is searched as its inverse closure, and a set of
    at most k elements touches at most k classes, giving Delta_k.
    """
    m = len(table.classes)
    _require_subsets(m, subset_cap)
    kmax = m if max_classes is None else min(max_classes, m)

    results = []
    cache: dict[tuple[int, ...], int | None] = {}
    best = 0
    best_k = [0] * kmax
    witnesses = []
    for k in range(1, m):
        for subset in combinations(range(1, m), k):
            key = tuple(sorted(set(subset) | {table.class_inverse[c] for c in subset}))
            if key not in cache:
                cache[key] = norm_ball_table(table, key).diameter
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


def transvection_diameter(n: int, p: int, cap: int = 10**6) -> dict:
    """Exact diameter of SL_n(F_p) with respect to the conjugacy class of the
    transvection E_1n(1), reported next to rank/2 for scale."""
    table = enumerate_group(n, p, cap)
    g = elementary(GF(p), n, 1, n, 1)
    cls = table.class_of[table.index_of(g)]
    norm = norm_ball_table(table, (cls,))
    return {
        "group": f"SL({n},{p})",
        "order": table.order,
        "class": cls,
        "class_size": len(table.classes[cls]),
        "generates": norm.diameter is not None,
        "diameter": norm.diameter,
        "half_rank": (n - 1) / 2,
        "note": FINITE_FIELD_NOTE,
    }
