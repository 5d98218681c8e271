"""Per-layer spans around the public functions of `cuspidal`'s modules.

`Tracer.install` wraps every public function defined in each of the eight
modules, plus `CuspDivisor.degree`, and rebinds every name in the package
that refers to the original, so calls through names another module
imported are traced too. Nothing in `src/` changes. Spans are aggregated
in memory: per function the number of calls and the self CPU time (the
span's CPU time minus that of the traced calls it made). For the functions
in REPEATED it also counts the calls whose arguments were already seen
within the same CLI call, and for `smith_normal_form` it keeps the largest
input dimension and the largest entry bit length of D, P and Q, outside
every span. The wrapper's own call overhead lands in the caller's self time.
"""

import functools
import importlib
import inspect
import time

PACKAGE = "cuspidal"
MODULES = ("linalg", "curve", "eta", "classgroup", "transform", "jacobian", "verify", "cli")
SMITH = "linalg.smith_normal_form"
# functions with hashable arguments whose repeated calls are counted
REPEATED = ("eta.divisor", "transform.cusp_expansion")


class Stats:
    __slots__ = ("module", "calls", "repeat_calls", "self_s")

    def __init__(self, module):
        self.module = module
        self.calls = 0
        self.repeat_calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []
        self.seen = {name: set() for name in REPEATED}
        self.smith_max_dim = 0
        self.smith_max_bits = 0

    def new_call(self):
        """Start a new CLI call: forget the arguments seen so far."""
        for seen in self.seen.values():
            seen.clear()

    def _smith_shape(self, a, result):
        self.smith_max_dim = max(self.smith_max_dim, a.nrows, a.ncols)
        bits = max(
            (abs(x).bit_length() for m in (result.d, result.p, result.q) for row in m for x in row),
            default=0,
        )
        self.smith_max_bits = max(self.smith_max_bits, bits)

    def _wrap(self, name, module, fn):
        stats = self.stats[name] = Stats(module)
        seen = self.seen.get(name)
        smith = name == SMITH
        stack = self.stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.calls += 1
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    stats.repeat_calls += 1
                else:
                    seen.add(key)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if smith:
                start = clock()
                self._smith_shape(args[0], result)
                if stack:
                    stack[-1][0] += clock() - start
            return result

        return traced

    def install(self):
        package = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    bucket = "cli.handlers" if short == "cli" and attr.startswith("cmd_") else short
                    wrapped[obj] = self._wrap(f"{short}.{attr}", bucket, obj)
        cusp_divisor = modules["curve"].CuspDivisor
        cusp_divisor.degree = self._wrap("curve.CuspDivisor.degree", "curve", cusp_divisor.degree)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def snapshot(self):
        """Counts and self times so far; `per_pass` turns two into one pass."""
        rows = {}
        for name, stats in self.stats.items():
            row = rows[name] = {"module": stats.module, "calls": stats.calls, "self_s": stats.self_s}
            if name in REPEATED:
                row["repeat_calls"] = stats.repeat_calls
        return rows


def per_pass(before, after):
    """Counts and self times of one pass from two snapshots."""
    return {
        name: {key: value if key == "module" else value - before[name][key] for key, value in row.items()}
        for name, row in after.items()
    }
