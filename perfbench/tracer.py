"""Span tracing of the program's public functions, from outside the program.

``Tracer.install()`` wraps every public function of the traced
``cremona`` modules, plus ``PicClass.__post_init__``, and rebinds each
wrapper in every ``cremona.*`` namespace that holds the original: a
``from .lattice import pairing`` copies the binding into the importing
module, so patching ``cremona.lattice`` alone would miss those calls.
``remove()`` puts every original back.

Each call becomes a span (name, start, end, parent span, operation id)
kept in memory.  Per name the tracer sums calls and self time: a span's
duration minus the time its child spans cover.  Spans past
``MAX_SPANS`` are counted but not kept, so that a hot leaf such as
``pairing`` cannot exhaust memory; the sums always cover every call.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("lattice", "weyl", "curves", "nef", "polytopes", "linalg", "serialize",
           "verify", "cli")
ANGLE_FUNCTIONS = ("classify_angle", "cartan_matrix", "is_coxeter", "coxeter_diagram")
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.op_self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.peak_bits = 0
        self.op = None
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, child seconds, name]
        self._active: Counter = Counter()
        self._next_id = 0

    # -- wrapping --

    def _wrap(self, name: str, fn, after=None):
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0, name]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                self.calls[name] += 1
                self.self_s[name] += own
                self.op_self_s[self.op] += own
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], name, start, end, parent, self.op))
                else:
                    self.dropped += 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_hooks(self) -> dict:
        def reduce_done(r):
            self.counters["weyl.reduce_class.phi_steps"] += r.iterations
            self.counters["weyl.reduce_class.witness_gens"] += len(r.witness)

        def generator_done(v):
            self.peak_bits = max(self.peak_bits, max(abs(x).bit_length() for x in v.coords))

        def enumerate_done(classes):
            self.counters["curves.enumerate_minus_one.classes_out"] += len(classes)

        def rays_done(rays):
            self.counters["polytopes.extremal_rays.rays_out"] += len(rays)

        def kernel_done(_):
            if self._active["polytopes.extremal_rays"]:
                self.counters["polytopes.extremal_rays.kernels"] += 1

        def rref_done(_):
            if self._active["polytopes.is_implied"]:
                self.counters["polytopes.is_implied.rrefs"] += 1

        return {
            "weyl.reduce_class": reduce_done,
            "weyl.apply_generator": generator_done,
            "curves.enumerate_minus_one": enumerate_done,
            "polytopes.extremal_rays": rays_done,
            "linalg.kernel_basis": kernel_done,
            "linalg.rref": rref_done,
        }

    def install(self) -> None:
        import cremona.cli  # noqa: F401  (cli is not imported by the package)
        from cremona.lattice import PicClass

        hooks = self._after_hooks()
        originals: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"cremona.{short}"]
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    originals[id(fn)] = self._wrap(name, fn, hooks.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name == "cremona" or module_name.startswith("cremona."):
                for attr, value in list(vars(module).items()):
                    wrapper = originals.get(id(value))
                    if wrapper is not None and wrapper.__wrapped__ is value:
                        self.patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        post_init = PicClass.__dict__["__post_init__"]
        self.patches.append((PicClass, "__post_init__", post_init))
        PicClass.__post_init__ = self._wrap("lattice.PicClass", post_init)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    # -- results --

    def layer_metrics(self) -> dict[str, float]:
        """The per-module figures the traced run reports (besides the cli ones)."""
        calls, own, count = self.calls, self.self_s, self.counters
        out: dict[str, float] = {
            "lattice.PicClass.validations": calls["lattice.PicClass"],
            "lattice.PicClass.self_s": own["lattice.PicClass"],
        }
        for name in ("lattice.pairing", "weyl.apply_generator", "weyl.sort_coordinates",
                     "weyl.reduce_class", "curves.enumerate_minus_one",
                     "nef.is_nef_K_nonpositive", "polytopes.extremal_rays", "polytopes.is_implied", "linalg.rref",
                     "linalg.kernel_basis", "serialize.decode_class", "verify.run_suite"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        out["weyl.reduce_class.phi_steps"] = count["weyl.reduce_class.phi_steps"]
        out["weyl.reduce_class.witness_gens"] = count["weyl.reduce_class.witness_gens"]
        out["weyl.reduce_class.peak_bits"] = self.peak_bits
        out["curves.enumerate_minus_one.classes_out"] = count[
            "curves.enumerate_minus_one.classes_out"]
        kernels = count["polytopes.extremal_rays.kernels"]
        out["polytopes.extremal_rays.rays_per_kernel"] = (
            count["polytopes.extremal_rays.rays_out"] / kernels if kernels else 0.0)
        tests = calls["polytopes.is_implied"]
        out["polytopes.is_implied.rref_per_test"] = (
            count["polytopes.is_implied.rrefs"] / tests if tests else 0.0)
        out["polytopes.angles.self_s"] = sum(own[f"polytopes.{f}"] for f in ANGLE_FUNCTIONS)
        out["serialize.encode.self_s"] = sum(
            v for k, v in own.items() if k.startswith("serialize.encode_"))
        out["cli.main.self_s"] = own["cli.main"]
        return out
