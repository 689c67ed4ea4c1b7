"""Seeded input generation for the three workloads.

Each workload is one *cycle*: a list of JSON-ready operations that the
worker runs in order, again and again, until the run's time is up.
Only whole cycles are run, so every run of one workload does the same
mix of work, and the seed changes the inputs but not their cost
profile: each cycle is stratified (every n and every depth band
appears a fixed number of times) and the seed draws the random words,
base points, classes and order inside those strata.

Nothing here imports ``cremona``; classes are built and moved with the
benchmark's own arithmetic in ``checks``.
"""

from __future__ import annotations

import hashlib
import json
import random

from checks import phi, sigma

# nef_stream: NEF_OPS classes with word lengths log-spaced up to
# MAX_DEPTH, each length once, so that the costs spread smoothly and
# no percentile falls into a gap between bands.  n runs through 9..20
# along them, and nef and not-nef classes alternate.  The grid is the
# same for every seed, so that the seed moves the words, not the cost
# profile.
NEF_N = range(9, 21)
NEF_OPS = 240
MAX_DEPTH = 3000

# cone_audit: a fixed set of operations, because their costs differ by
# facet and by n; the seed picks only their order.
RAYS_N = (10, 12)
FARKAS = (("P", 9, tuple(range(10))), ("P_tilde", 7, tuple(range(7))))  # (cone, n, facets)
ANGLE_N = range(10, 21)

# cli_session
CLI_SMALL_N = range(9, 15)
CLI_MAX_DEPTH = 100
CLI_CLASS_OPS = 12  # per command


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def encode_int(x: int) -> int | str:
    return x if -(1 << 53) < x < (1 << 53) else str(x)


def nef_point(n: int, rng: random.Random) -> list[int]:
    """A point strictly inside the fundamental cone: sorted negative tail,
    x_0 above x_1 + x_2 + x_3 and above -K."""
    tail, value = [], -rng.randint(1, 4)
    for _ in range(n):
        tail.append(value)
        value -= rng.randint(1, 4)
    tail.reverse()
    x0 = max(-(tail[0] + tail[1] + tail[2]), (-sum(tail) + 2) // 3) + rng.randint(1, 5)
    return [x0] + tail


def not_nef_point(n: int, rng: random.Random) -> list[int]:
    """A K-nonpositive class with x_n > 0, so it pairs negatively with e_n."""
    x = nef_point(n, rng)
    x[n] = rng.randint(1, 4)
    x[0] = max(x[0], (-sum(x[1:]) + 2) // 3 + 1)
    return x


def _triples(n: int) -> list[tuple[int, int, int]]:
    return [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for k in range(j + 1, n + 1)]


def random_move(x: list[int], depth: int, rng: random.Random) -> list[int]:
    """Apply `depth` uniformly random generators (all phi_ijk and sigma_i)."""
    n = len(x) - 1
    triples = _triples(n)
    choices = len(triples) + n - 1
    x = list(x)
    for _ in range(depth):
        g = rng.randrange(choices)
        if g < len(triples):
            phi(x, *triples[g])
        else:
            sigma(x, g - len(triples) + 1)
    return x


def _class_op(kind: str, n: int, depth: int, expect: str, rng: random.Random) -> dict:
    base = nef_point(n, rng) if expect == "nef" else not_nef_point(n, rng)
    coords = random_move(base, depth, rng)
    return {"kind": kind, "n": n, "expect": expect, "depth": depth,
            "coords": [str(c) for c in coords],
            "text": json.dumps({"n": n, "coords": [encode_int(c) for c in coords]})}


def nef_stream(seed: int) -> list[dict]:
    rng = _rng("nef_stream", seed)
    ops = []
    for k in range(NEF_OPS):
        depth = round(MAX_DEPTH ** ((k + 1) / NEF_OPS))
        n = NEF_N[k % len(NEF_N)]
        expect = "not_nef" if (k + k // len(NEF_N)) % 2 else "nef"
        ops.append(_class_op("nef", n, depth, expect, rng))
    rng.shuffle(ops)
    return ops


def cone_audit(seed: int) -> list[dict]:
    rng = _rng("cone_audit", seed)
    ops = [{"kind": "rays", "n": n} for n in RAYS_N]
    ops += [{"kind": "farkas", "cone": cone, "n": n, "facet": f}
            for cone, n, facets in FARKAS for f in facets]
    ops += [{"kind": "angles", "n": n} for n in ANGLE_N]
    rng.shuffle(ops)
    return ops


def cli_session(seed: int) -> list[dict]:
    rng = _rng("cli_session", seed)
    ops = []
    for command in ("reduce", "nef-test"):
        for expect in ("nef", "not_nef") * (CLI_CLASS_OPS // 2):
            n = rng.choice(CLI_SMALL_N)
            op = _class_op(command, n, rng.randint(1, CLI_MAX_DEPTH), expect, rng)
            del op["text"]
            op["argv"] = [command, "--n", str(n), "--format", "json",
                          "--vector=" + ",".join(op["coords"])]
            ops.append(op)
    ops.append({"kind": "rays", "n": 12,
                "argv": ["rays", "--n", "12", "--polytope", "p_minus", "--format", "json"]})
    ops.append({"kind": "curves", "n": 10, "d": 6,
                "argv": ["curves", "--n", "10", "--max-degree", "6", "--format", "json"]})
    n = rng.choice(ANGLE_N)
    ops.append({"kind": "region-r", "n": n,
                "argv": ["region-r", "--n", str(n), "--format", "json"]})
    n = rng.choice(ANGLE_N)
    ops.append({"kind": "diagram", "n": n,
                "argv": ["diagram", "--n", str(n), "--polytope", "p_minus", "--format", "dot"]})
    ops.append({"kind": "verify",
                "argv": ["verify", "--suite", "quick", "--format", "json",
                         "--seed", str(rng.randrange(1 << 30))]})
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "nef_stream": nef_stream,
    "cone_audit": cone_audit,
    "cli_session": cli_session,
}


def make_cycle(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def digest(cycle: list[dict]) -> str:
    """A hash of the generated inputs: equal digests mean equal work."""
    return hashlib.sha256(json.dumps(cycle, sort_keys=True).encode()).hexdigest()[:16]
