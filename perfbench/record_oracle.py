"""Recompute the oracle answers frozen in check.py, by an independent method.

    python3 perfbench/record_oracle.py

Each frozen value is recomputed with `slword.oracle.norms_by_fixed_point`
(relaxation over the whole multiplication table), not with the breadth-first
search the `oracle` command uses, and compared with check.py.  Run it when
the frozen values are recorded or questioned, not on every benchmark run
(it takes about 15 s on a 2.1 GHz Xeon).
"""

from __future__ import annotations

import os
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import FROZEN_DELTA, FROZEN_SL2_11  # noqa: E402
from slword.oracle import enumerate_group, norms_by_fixed_point  # noqa: E402


def diameter(table, class_ids) -> int | None:
    norms = norms_by_fixed_point(table, class_ids)
    return None if min(norms) < 0 else max(norms)


def delta_by_fixed_point(table) -> tuple[int, list[int]]:
    m = len(table.classes)
    best_k = [0] * m
    seen: dict[tuple, int | None] = {}
    for k in range(1, m + 1):
        for subset in combinations(range(m), k):
            key = tuple(sorted(set(subset) | {table.class_inverse[c] for c in subset}))
            if key not in seen:
                seen[key] = diameter(table, key)
            if seen[key] is not None:
                for kk in range(k - 1, m):
                    best_k[kk] = max(best_k[kk], seen[key])
    return best_k[-1], best_k


def main() -> int:
    ok = True
    for (n, p), want in FROZEN_DELTA.items():
        table = enumerate_group(n, p)
        d, dk = delta_by_fixed_point(table)
        got = {"order": table.order, "delta": d, "delta_k": dk}
        print(f"SL({n},{p}): {got}")
        ok &= got == want
    table = enumerate_group(2, 11)
    sizes = sorted(len(c) for c in table.classes)
    diams = {diameter(table, (c,)) for c, members in enumerate(table.classes) if len(members) > 1}
    central = [diameter(table, (c,)) for c, members in enumerate(table.classes) if len(members) == 1]
    print(f"SL(2,11): order {table.order}, class sizes {sizes}, single-class diameters {diams}, central {central}")
    ok &= (
        table.order == FROZEN_SL2_11["order"]
        and sizes == FROZEN_SL2_11["class_sizes"]
        and diams == {FROZEN_SL2_11["single_class_diameter"]}
        and central == [None, None]
    )
    print("frozen answers confirmed" if ok else "MISMATCH with the frozen answers")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
