"""How each benchmark operation calls the program, and how its result is checked.

``Runner(workload)`` imports ``cremona`` (so it only runs in the worker
process).  ``run(op)`` is the timed part: exactly the calls a user of
the library or CLI would make.  ``check(op, result)`` is untimed and
hands the result to the independent checks in ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import checks

CLI_TIMEOUT_S = 120
# The verify suite runs a thread pool when CREMONA_THREADS > 1; the
# benchmark keeps one client and no threads, whatever the caller's setting.
PINNED_ENV = {"CREMONA_THREADS": "1"}


class Runner:
    def __init__(self, workload: str, root: str, in_process_cli: bool = False):
        import cremona
        from cremona import serialize

        self.cremona = cremona
        self.serialize = serialize
        if workload == "cli_session":
            from cremona import cli

            self.cli = cli
        self.workload = workload
        self.root = root
        self.in_process_cli = in_process_cli
        if in_process_cli:  # the traced run is a process of its own
            os.environ.update(PINNED_ENV)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **PINNED_ENV)
        self.bytes_out = 0
        self.stdout_bytes = 0

    # -- warm-up: one small call of every operation kind, with fixed inputs --

    def warm_up(self) -> None:
        if self.workload == "nef_stream":
            for coords in ([40, -3, -4, -5, -6, -7, -8, -9, -10, -11],
                           [40, -3, -4, -5, -6, -7, -8, -9, -10, 2]):
                text = json.dumps({"n": 9, "coords": coords})
                self.run({"kind": "nef", "text": text})
        elif self.workload == "cone_audit":
            self.run({"kind": "rays", "n": 10})
            self.run({"kind": "farkas", "cone": "P_tilde", "n": 5, "facet": 0})
            self.run({"kind": "angles", "n": 10})
        else:
            self.cli.build_parser()

    # -- the timed operation --

    def run(self, op: dict):
        kind, c = op["kind"], self.cremona
        if "argv" in op:
            return self._cli(op["argv"])
        if kind == "nef":
            v = self.serialize.decode_class(json.loads(op["text"]))
            return json.dumps(self.serialize.encode_verdict(c.is_nef_K_nonpositive(v)))
        if kind == "rays":
            return c.extremal_rays(c.build_P_minus(op["n"]))
        if kind == "farkas":
            P = {"P_tilde": c.build_P_tilde, "P": c.build_P,
                 "P_minus": c.build_P_minus}[op["cone"]](op["n"])
            i = op["facet"]
            rest = c.ConePolytope(P.n, P.halfspaces[:i] + P.halfspaces[i + 1:])
            return c.is_implied(rest, P.halfspaces[i].normal)
        if kind == "angles":
            P = c.build_P_minus(op["n"])
            matrix = c.cartan_matrix(P)
            try:
                diagram = c.coxeter_diagram(P)
            except ValueError:  # not a Coxeter polytope: the diagram is undefined
                diagram = None
            return matrix, diagram
        raise ValueError(f"unknown operation {kind!r}")

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process_cli:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "cremona", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode()

    # -- the untimed check --

    def check(self, op: dict, result) -> None:
        kind = op["kind"]
        if "argv" in op:
            self._check_cli(op, *result)
        elif kind == "nef":
            self.bytes_out += len(result)
            checks.check_nef_verdict(op, json.loads(result))
        elif kind == "rays":
            checks.check_rays(op["n"], [r.generator.coords for r in result])
        elif kind == "farkas":
            checks.check_farkas(op, result)
        elif kind == "angles":
            matrix, diagram = result
            checks.check_cartan(op["n"], [[(e.sign, e.cos2) for e in row] for row in matrix])
            edges = None if diagram is None else {
                (e.i, e.j): (e.style, e.multiplicity) for e in diagram.edges}
            checks.check_diagram(op["n"], edges)

    def _check_cli(self, op: dict, code: int, stdout: str) -> None:
        kind = op["kind"]
        self.stdout_bytes += len(stdout)
        if kind != "diagram":
            self.bytes_out += len(stdout)
        if kind in ("reduce", "nef-test"):
            checks.require(code == (0 if op["expect"] == "nef" else 3), f"exit code {code}")
            result = json.loads(stdout)
            if kind == "reduce":
                checks.check_reduction(op, result)
            else:
                checks.check_nef_verdict(op, result)
            return
        if kind == "diagram":
            edges = _parse_dot(stdout) if code == 0 else None
            checks.require(code in (0, 3), f"exit code {code}")
            checks.check_diagram(op["n"], edges)
            return
        checks.require(code == 0, f"exit code {code}")
        result = json.loads(stdout)
        if kind == "rays":
            checks.require(result["count"] == len(result["rays"]), "ray count field")
            checks.check_rays(op["n"], [[int(x) for x in r["coords"]] for r in result["rays"]])
        elif kind == "curves":
            checks.require(result["count"] == len(result["classes"]), "class count field")
            checks.check_minus_one_list(op["n"], op["d"], [
                [checks.decode_int(x) for x in c["coords"]] for c in result["classes"]])
        elif kind == "region-r":
            checks.check_region_r(op["n"], result)
        elif kind == "verify":
            checks.check_verify_report(result)


def _parse_dot(text: str) -> dict:
    """{(i, j): (style, strands)} from ``diagram --format dot`` output."""
    edges: dict = {}
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if " -- " not in line:
            continue
        a, _, rest = line.partition(" -- ")
        b, _, attrs = rest.partition(" ")
        key = (int(a[1:]), int(b[1:]))
        style = attrs.partition("style=")[2].rstrip("]") or "plain"
        old = edges.get(key, (style, 0))
        edges[key] = (style, old[1] + 1)
    return edges
