"""Workload definitions and the inputs they generate from a seed.

Every input is made here, without `slword`: targets are products of 2n
random elementary matrices drawn exactly as `slword.random_sl(F, n, rng,
factors=2n)` draws them, and the generating set is X = {E_12(1)}.  Request i
of a run takes its own random stream, seeded from (workload, seed, i), so
what one request draws never shifts the inputs of later ones.

A run is a list of rounds.  A round is one pass over the workload's request
mix, so a run that stops between rounds always measured whole mixes.  Set-up
writes the rounds a run needs at the seed commit's speed (`round_s`); a
faster program gets more rounds written while the run's clock is paused.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from random import Random

from check import cli_field, matrix_json

WORKLOADS = {
    # certify then verify one target of each size per round
    "certify-q": {"field": None, "sizes": (3, 4), "round_s": 0.6},
    "certify-fp": {"field": 101, "sizes": (4, 5), "round_s": 0.6},
    # exhaustive oracle searches in a seeded order per round: delta runs
    # thousands of BFS passes on small groups, diameter a few on a larger one
    "oracle-delta": {"round_s": 2.8},
    "oracle-diameter": {"round_s": 3.4},
}

ORACLE_DELTA_GROUPS = ((2, 5), (3, 2))
ORACLE_DIAMETER_GROUP = (2, 11)
ORACLE_DIAMETER_CLASSES = 15


@dataclass
class Request:
    kind: str  # certify, verify, oracle_delta or oracle_diameter
    argv: list[str]
    check: dict = field(default_factory=dict)


def random_target(p: int | None, n: int, rng: Random, factors: int) -> list[list]:
    """Product of `factors` random elementary matrices E_ij(v), drawn in the
    same order and from the same ranges as `slword.random_sl` with bound 2."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            j = i % n + 1
        if p is None:
            v = rng.randint(1, 2)
            v = v if rng.random() < 0.5 else -v
        else:
            v = rng.randrange(1, p)
        # right-multiplying by E_ij(v) adds v times column i to column j
        for row in m:
            row[j - 1] += v * row[i - 1]
            if p is not None:
                row[j - 1] %= p
    return m


def elementary_12(n: int) -> list[list]:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    m[0][1] = 1
    return m


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def planned_rounds(workload: str, seconds: float) -> int:
    """Rounds that fill `seconds` at the seed commit's speed, plus one."""
    return math.ceil(seconds / WORKLOADS[workload]["round_s"]) + 1


def build_rounds(workload: str, seed: int, workdir: str, first: int, count: int) -> list[list[Request]]:
    """Write the inputs of rounds first .. first+count-1 under `workdir` and
    return those rounds."""
    os.makedirs(workdir, exist_ok=True)
    if workload.startswith("oracle-"):
        make = _delta_round if workload == "oracle-delta" else _diameter_round
        return [make(Random(f"{workload}/{seed}/round{r}")) for r in range(first, first + count)]

    spec = WORKLOADS[workload]
    p, sizes = spec["field"], spec["sizes"]
    gensets = {}
    for n in sizes:
        gensets[n] = os.path.join(workdir, f"genset-n{n}.json")
        if not os.path.exists(gensets[n]):
            _write_json(gensets[n], [matrix_json(elementary_12(n), p)])
    rounds = []
    for r in range(first, first + count):
        rnd = []
        for k, n in enumerate(sizes):
            i = r * len(sizes) + k
            rng = Random(f"{workload}/{seed}/{i}")
            req_seed = rng.randrange(2**31)
            target = random_target(p, n, rng, factors=2 * n)
            target_path = os.path.join(workdir, f"target-{i}.json")
            cert_path = os.path.join(workdir, f"cert-{i}.json")
            _write_json(target_path, matrix_json(target, p))
            info = {"field": p, "n": n, "target": target, "cert": cert_path, "seed": req_seed}
            rnd.append(Request("certify", [
                "certify", "--field", cli_field(p), "--n", str(n),
                "--target", target_path, "--genset", gensets[n],
                "--seed", str(req_seed), "--out", cert_path,
            ], info))
            rnd.append(Request("verify", ["verify", cert_path], info))
        rounds.append(rnd)
    return rounds


def _delta_round(rng: Random) -> list[Request]:
    reqs = [
        Request("oracle_delta", ["oracle", "delta", "--n", str(n), "--p", str(p)], {"n": n, "p": p})
        for n, p in ORACLE_DELTA_GROUPS
    ]
    rng.shuffle(reqs)
    return reqs


def _diameter_round(rng: Random) -> list[Request]:
    n, p = ORACLE_DIAMETER_GROUP
    reqs = [
        Request(
            "oracle_diameter",
            ["oracle", "diameter", "--n", str(n), "--p", str(p), "--classes", str(c)],
            {"class": c},
        )
        for c in range(ORACLE_DIAMETER_CLASSES)
    ]
    rng.shuffle(reqs)
    return reqs
