"""Per-layer spans recorded from outside the package.

A layer is one module of macpolar.  While a `Tracer` is installed, every
public function and public method defined in a layer module is replaced by
a timing wrapper, in the defining module and in every module that bound it
with `from .x import name` (polarize and cli do this for the mac
transforms, for example).  Spans nest on one stack, so a span's self time
is its duration minus the time of the wrapped spans it encloses; summed
over all functions, self times partition the time spent inside the
outermost span (`cli.main`).

Spans are aggregated in memory per function (calls, self time); a few
hooks read sizes off arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("gfq", "subspace", "mac", "linear_mac", "polarize", "codec",
          "jsonio", "cli")

# Called so often, and doing so little, that a wrapper would cost more
# than the function itself; their time stays in the caller's self time.
TOO_SMALL = {"gfq.is_prime", "gfq.check_prime", "gfq.field_inv"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _merge_hook(tr, args, result):
    tr.counters["mac.merge_outputs.cols_in"] += args[0].output_size
    tr.counters["mac.merge_outputs.cols_out"] += result.output_size


def _terms_hook(tr, args, result):
    tr.counters["linear_mac.terms_out"] += len(result.terms)


def _branches_hook(tr, args, result):
    tr.counters["polarize.branches"] += len(result.branches)


def _bytes_hook(tr, args, result):
    tr.counters["jsonio.bytes_written"] += _file_size(args[0])


COUNTERS = ("mac.merge_outputs.cols_in", "mac.merge_outputs.cols_out",
            "linear_mac.terms_out", "polarize.branches", "jsonio.bytes_written")

HOOKS = {
    "mac.merge_outputs": _merge_hook,
    "linear_mac.LinearComboMac.minus": _terms_hook,
    "linear_mac.LinearComboMac.plus": _terms_hook,
    "polarize.build_code": _branches_hook,
    "jsonio.write_csv": _bytes_hook,
    "jsonio.save_codespec": _bytes_hook,
}


def package_modules(package: str):
    prefix = package + "."
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(prefix))]


def lru_caches(package: str):
    """(layer, cache) for every functools cache defined in the package."""
    found = {}
    for mod in package_modules(package):
        for obj in list(vars(mod).values()):
            for cand in [obj] + list(vars(obj).values() if inspect.isclass(obj) else []):
                if (hasattr(cand, "cache_clear") and hasattr(cand, "cache_info")
                        and getattr(cand, "__module__", None) == mod.__name__):
                    found[id(cand)] = (mod.__name__.rsplit(".", 1)[-1], cand)
    return list(found.values())


class Tracer:
    """Install with `with tracer:` (re-entrant across calls, not nested);
    totals accumulate over every installation."""

    def __init__(self, package: str = "macpolar"):
        self.package = package
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[float] = []
        self._patches: list | None = None

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dur = perf_counter() - t0
                        self_s[name] += dur - stack.pop()
                        if stack:
                            stack[-1] += dur
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                calls[name] += 1
                self_s[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _targets(self):
        """(qualified name, owner object, attribute, original value)."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{self.package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                            out.append((f"{layer}.{attr}.{meth}", obj, meth, raw))
                elif callable(obj):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        return [t for t in out if t[0] not in TOO_SMALL]

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        plan = []
        modules = package_modules(self.package)
        for name, owner, attr, orig in self._targets():
            if isinstance(orig, (classmethod, staticmethod)):
                new = type(orig)(self._wrap(name, orig.__func__))
            else:
                new = self._wrap(name, orig)
            if inspect.isclass(owner):
                plan.append((owner, attr, orig, new))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        plan.append((mod, key, orig, new))
        return plan

    def __enter__(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._stack.clear()
        return False

    # -- totals ---------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def function(self, *names):
        """(calls, self seconds) summed over qualified function names."""
        return (sum(self.calls.get(n, 0) for n in names),
                sum(self.self_s.get(n, 0.0) for n in names))
