"""Calls leave no module state behind.

The library's results are pure functions of their arguments, so a call
must not change what any ``cremona.<module>`` global holds, and no
function keeps a cache across calls.  An angle pass is kept on its own
polytope object (``polytopes._angle_pass``), and a reduction witness
builds its shared ``Phi``s and ``Sigma``s on itself, when its
generators are first read (``weyl.WeylWord``).
"""

import ast
import gc
import importlib
import pkgutil
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import cremona
from cremona.lattice import PicClass
from cremona.nef import curve_check
from cremona.polytopes import (
    build_P,
    build_P_minus,
    cartan_matrix,
    coxeter_diagram,
    extremal_rays,
    is_coxeter,
)
from cremona.verify import run_suite
from cremona.weyl import reduce_class, sort_coordinates

SRC = Path(__file__).resolve().parent.parent / "src" / "cremona"


def loaded_modules():
    """Every cremona submodule but __main__, its body run: the package
    registers them lazily, and a lazy module's first attribute access
    runs it."""
    modules = []
    for info in pkgutil.iter_modules(cremona.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"cremona.{info.name}")
            module.__name__  # runs the body of a lazily registered module
            modules.append(module)
    return modules


def snapshot():
    """(module, name) -> (the value, its length if a list, dict or set)."""
    state = {}
    for module in loaded_modules():
        for name, value in vars(module).items():
            size = len(value) if isinstance(value, (list, dict, set)) else None
            state[module.__name__, name] = (value, size)
    return state


def k_nonpositive_classes(rng, n, count):
    """Random nonzero classes (x_0; tail) with 3 x_0 + sum(tail) >= 0."""
    classes = []
    for _ in range(count):
        tail = [rng.randint(-12, 3) for _ in range(n)]
        x0 = max(0, -(sum(tail) // 3)) + rng.randint(1, 20)
        classes.append(PicClass(n, (x0, *tail)))
    return classes


def workload():
    rng = random.Random(31)
    for n in (3, 9, 20, 60):
        for v in k_nonpositive_classes(rng, n, 5):
            reduce_class(v)
            curve_check(v, 4)
    for n in (10, 200, 1000):
        sort_coordinates(PicClass(n, (0, 1) + (0,) * (n - 1)))
    for P in [build_P(9), *map(build_P_minus, (10, 12, 13, 20))]:
        cartan_matrix(P)
        if is_coxeter(P):
            coxeter_diagram(P)
        extremal_rays(P)
    assert run_suite("quick").passed()


def test_a_workload_changes_no_module_global():
    before = snapshot()
    workload()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = sorted(
        f"{module}.{name}"
        for (module, name), (value, size) in before.items()
        if after[module, name][0] is not value or after[module, name][1] != size
    )
    assert changed == []


def test_the_package_namespace_only_gains_exported_names():
    # cremona.__getattr__ binds each public name it looks up, so that the
    # next lookup is a plain attribute; nothing else may change
    before = dict(vars(cremona))
    workload()
    for name in cremona._HOME:
        getattr(cremona, name)
    after = vars(cremona)
    gained = after.keys() - before.keys()
    assert gained <= cremona._HOME.keys()
    assert [name for name in before if after.get(name) is not before[name]] == []
    homes = {name: getattr(cremona, cremona._HOME[name]) for name in gained}
    assert all(after[name] is getattr(home, name) for name, home in homes.items())


def test_no_function_keeps_a_cache():
    cached = sorted(
        f"{module.__name__}.{name}"
        for module in loaded_modules()
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    )
    # it maps an indent string to a bound JSONEncoder.encode, which holds
    # no per-call state
    assert cached == ["cremona.cli._flat_list_encoder"]


def test_a_dropped_sort_word_keeps_no_memory():
    n = 2 * 10**5
    v = PicClass(n, (0, 1) + (0,) * (n - 1))  # the 1 moves past n - 1 zeros
    loaded_modules()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(sort_coordinates(v)[1]) == n - 1
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_no_global_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_threads_get_their_single_thread_results():
    loaded_modules()  # a module's first use from many threads can see it half-loaded
    rng = random.Random(7)
    classes = [v for n in (10, 16, 40) for v in k_nonpositive_classes(rng, n, 4)]
    tails = [
        PicClass(n, (0, *[rng.randint(-50, 50) for _ in range(n)])) for n in (30, 120, 300)
    ]
    builds = [lambda: build_P_minus(10), lambda: build_P_minus(13), lambda: build_P(9)]

    def angles(P):
        return cartan_matrix(P), coxeter_diagram(P)

    want = (
        [reduce_class(v) for v in classes],
        [sort_coordinates(v) for v in tails],
        [angles(build()) for build in builds],
    )
    shared = build_P_minus(11)  # no pass yet: the threads race to make it
    want_shared = angles(build_P_minus(11))

    start = threading.Barrier(8)
    wrong, errors = [], []

    def run():
        try:
            start.wait()
            for _ in range(3):
                got = (
                    [reduce_class(v) for v in classes],
                    [sort_coordinates(v) for v in tails],
                    [angles(build()) for build in builds],
                )
                if got != want or angles(shared) != want_shared:
                    wrong.append(threading.current_thread().name)
        except Exception as exc:  # reported below, with the thread's result
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and wrong == []
