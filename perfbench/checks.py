"""Independent exact checks for every benchmark operation.

Nothing here imports ``cremona``: the lattice arithmetic (pairing, the
phi/sigma generators, the cone inequalities) is written again from the
definitions, so that a program change which breaks exactness shows up
as a failed check rather than as a faster number.

Every ``check_*`` function raises :class:`CheckFailed` with a reason;
returning normally means the result is correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())


class CheckFailed(Exception):
    """An operation returned a result that its independent check rejects."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# lattice arithmetic on plain lists: x = [x_0, x_1, ..., x_n]


def pairing(u, v) -> int:
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def canonical(n: int) -> list[int]:
    return [-3] + [1] * n


def phi(x: list[int], i: int, j: int, k: int) -> None:
    """The quadratic transformation based at points i < j < k, in place."""
    x0, xi, xj, xk = x[0], x[i], x[j], x[k]
    x[0] = 2 * x0 + xi + xj + xk
    x[i] = -x0 - xj - xk
    x[j] = -x0 - xi - xk
    x[k] = -x0 - xi - xj


def sigma(x: list[int], i: int) -> None:
    """The transposition of x_i and x_{i+1}, in place."""
    x[i], x[i + 1] = x[i + 1], x[i]


def decode_int(value) -> int:
    require(type(value) in (int, str), f"coordinate {value!r} is not an integer")
    return int(value)


def decode_coords(obj: dict, n: int) -> list[int]:
    require(obj.get("n") == n, f"class has n={obj.get('n')!r}, expected {n}")
    coords = [decode_int(c) for c in obj["coords"]]
    require(len(coords) == n + 1, f"class has {len(coords)} coordinates, expected {n + 1}")
    return coords


def replay(word: list, coords: list[int]) -> list[int]:
    """Apply a JSON-encoded generator word, left to right."""
    n = len(coords) - 1
    x = list(coords)
    for g in word:
        if "phi" in g:
            i, j, k = g["phi"]
            require(0 < i < j < k <= n, f"bad generator {g}")
            phi(x, i, j, k)
        else:
            i = g["sigma"]
            require(0 < i < n, f"bad generator {g}")
            sigma(x, i)
    return x


def in_fundamental_cone(x: list[int]) -> bool:
    """Sorted tail, x_0 + x_1 + x_2 + x_3 >= 0, x_n <= 0, and -K.x >= 0 from n = 10."""
    n = len(x) - 1
    tail = x[1:]
    return (
        all(a <= b for a, b in zip(tail, tail[1:]))
        and x[0] + x[1] + x[2] + x[3] >= 0
        and x[n] <= 0
        and (n <= 9 or 3 * x[0] + sum(tail) >= 0)
    )


def is_minus_one(x) -> bool:
    n = len(x) - 1
    d = x[0]
    return (
        pairing(x, x) == -1
        and pairing(x, canonical(n)) == -1
        and d >= 0
        and (d == 0 or all(-d <= m <= 0 for m in x[1:]))
    )


# ---------------------------------------------------------------------------
# cone normals, written from the definitions


def unit(n: int, i: int) -> list[int]:
    return [1 if j == i else 0 for j in range(n + 1)]


def cone_normals(kind: str, n: int) -> list[list[int]]:
    """Facet normals u (inequality u.x >= 0) of P_tilde, P and P_minus."""
    first = [1, -1, -1, -1] + [0] * (n - 3)
    out = [first] + [
        [0] * i + [1, -1] + [0] * (n - i - 1) for i in range(1, n)
    ]
    if kind in ("P", "P_minus"):
        out.append(unit(n, n))
    if kind == "P_minus":
        out.append([3] + [-1] * n)
    return out


def rays_digest(rays) -> str:
    text = ";".join(",".join(str(c) for c in r) for r in sorted(tuple(r) for r in rays))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def angle(a, b) -> tuple[int, Fraction]:
    """(sign of a.b, cos^2) for two negative-square normals."""
    p = pairing(a, b)
    return (p > 0) - (p < 0), Fraction(p * p, pairing(a, a) * pairing(b, b))


_COS2_TO_M = {Fraction(1, 4): 3, Fraction(1, 2): 4, Fraction(3, 4): 6}


def diagram_edges(normals) -> dict | None:
    """Expected DOT edges {(i, j): (style, strands)}, or None if not Coxeter."""
    edges = {}
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            sign, cos2 = angle(normals[i], normals[j])
            if cos2 > 1:
                edges[(i, j)] = ("dotted", 1)
            elif sign == 0:
                continue
            elif cos2 == 1:
                if sign < 0:
                    return None
                edges[(i, j)] = ("dashed", 1)
            elif sign > 0 and cos2 in _COS2_TO_M:
                m = _COS2_TO_M[cos2]
                if m > 2:
                    edges[(i, j)] = ("plain", m - 2)
            else:
                return None
    return edges


# ---------------------------------------------------------------------------
# per-operation checks


def check_nef_verdict(op: dict, verdict: dict) -> None:
    """A reduction verdict against the class the benchmark built."""
    n, coords = op["n"], [int(c) for c in op["coords"]]
    require(verdict.get("method") == "reduction_exact", f"method {verdict.get('method')!r}")
    require(verdict.get("verdict") == op["expect"],
            f"verdict {verdict.get('verdict')!r}, built as {op['expect']}")
    if op["expect"] == "nef":
        reduced = replay(verdict["witness"], coords)
        require(in_fundamental_cone(reduced), "witness does not reach the fundamental cone")
    else:
        violated = decode_coords(verdict["witness"], n)
        require(pairing(violated, coords) < 0, "violated class does not pair negatively")


def check_reduction(op: dict, result: dict) -> None:
    """A ``reduce --format json`` result: replay, cone test, violated class."""
    n, coords = op["n"], [int(c) for c in op["coords"]]
    reduced = decode_coords(result["reduced"], n)
    require(replay(result["witness"], coords) == reduced, "witness does not give 'reduced'")
    if op["expect"] == "nef":
        require(result["status"] == "in_cone", f"status {result['status']!r} for a nef class")
        require(in_fundamental_cone(reduced), "reduced class is outside the cone")
    else:
        require(result["status"] == "not_nef", f"status {result['status']!r} for a not-nef class")
        violated = decode_coords(result["violated"], n)
        require(pairing(violated, coords) < 0, "violated class does not pair negatively")


def check_rays(n: int, rays) -> None:
    normals = cone_normals("P_minus", n)
    rays = [list(r) for r in rays]
    require(len(rays) == 9 * n - 71, f"{len(rays)} rays at n={n}, expected {9 * n - 71}")
    for r in rays:
        require(len(r) == n + 1, f"ray {r} has the wrong length")
        g = 0
        for c in r:
            g = gcd(g, c)
        require(g == 1, f"ray {r} is not primitive")
        require(all(pairing(u, r) >= 0 for u in normals), f"ray {r} is infeasible")
    require(rays_digest(rays) == FROZEN["rays_p_minus"][str(n)], f"ray set at n={n} changed")


def check_farkas(op: dict, implied: bool) -> None:
    key = f"{op['cone']}:{op['n']}:{op['facet']}"
    require(implied is FROZEN["farkas"][key], f"is_implied {implied!r} for {key}")


def check_cartan(n: int, entries) -> None:
    """entries[i][j] = (sign, cos2) of P_minus(n)."""
    normals = cone_normals("P_minus", n)
    want = [[angle(a, b) for b in normals] for a in normals]
    require([[tuple(e) for e in row] for row in entries] == want, f"Cartan matrix of P_minus({n})")


def check_diagram(n: int, edges: dict | None) -> None:
    """edges is {(i, j): (style, strands)} as drawn, or None when refused."""
    want = diagram_edges(cone_normals("P_minus", n))
    require(edges == want, f"Coxeter diagram of P_minus({n})")


def check_minus_one_list(n: int, d: int, classes) -> None:
    seen = set()
    for c in classes:
        c = tuple(c)
        require(len(c) == n + 1 and is_minus_one(c), f"{c} is not a (-1)-class")
        require(c[0] <= d, f"{c} exceeds degree {d}")
        seen.add(c)
    require(len(seen) == len(classes), "duplicate classes")
    want = FROZEN["minus_one_counts"][f"{n}:{d}"]
    require(len(seen) == want, f"{len(seen)} classes for n={n}, d={d}, expected {want}")


def check_region_r(n: int, report: dict) -> None:
    cons = [((1, 2, 0), -1), ((-1, 1, 0), 0), ((0, -1, 1), 0), ((0, 0, -1), 0),
            ((1, n - 2, 1), -3)]
    require(report.get("ok") is True, "region R report is not ok")
    rows = report["rows"]
    require(len(rows) == 10, f"{len(rows)} rows")
    vertices = 0
    for row in rows:
        require(row["point"] is not None, f"planes {row['triple']} do not meet")
        p = [Fraction(x) for x in row["point"]]
        for i in row["triple"]:
            coeffs, rhs = cons[i]
            require(sum(c * x for c, x in zip(coeffs, p)) == rhs,
                    f"point {row['point']} is off plane {i}")
        feasible = all(sum(c * x for c, x in zip(co, p)) >= r for co, r in cons)
        require(row["is_vertex"] is feasible, f"vertex flag of {row['triple']}")
        vertices += feasible
        if feasible:
            f = p[0] ** 2 + (n - 2) * p[1] ** 2 + p[2] ** 2
            require(Fraction(row["f"]) == f, f"f at {row['triple']}")
    require(report["vertex_count"] == vertices, "vertex count")


def check_verify_report(checks: list) -> None:
    names = [c["name"] for c in checks]
    require(names == FROZEN["quick_suite"], f"quick suite ran {names}")
    for c in checks:
        want = "xfail" if c["name"] in FROZEN["xfail"] else "pass"
        require(c["status"] == want, f"{c['name']} is {c['status']}")
