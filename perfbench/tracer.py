"""Outside-in span tracer for the subspec package.

`install(tracer)` wraps, without editing the package, every public function
defined in a ``subspec.*`` module (the ``cli`` module excepted: it is the
root span) and the hand-written ``__init__`` and public methods of its
public classes.  A wrapped function replaces the original in every
``subspec.*`` module namespace that binds it, so the CLI's local
``from .x import f`` imports and intra-package calls both reach the wrapper.

Span names are ``<module>.<qualname>`` with the ``subspec.`` prefix
dropped; a class constructor is named after its class.  Self time is a
span's duration minus the time covered by the spans it opened.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

ROOT_SPAN = "cli.task"
PACKAGE = "subspec"


class Tracer:
    """Accumulates per-span self time, call counts and work counters."""

    def __init__(self):
        self._open = []  # child time covered so far, one entry per open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()

    def wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                covered = self._open.pop()
                self.self_s[name] += dt - covered
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += dt
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


# -- work counters, keyed by span name ----------------------------------------

def _count_integrand(tracer, args, kwargs):
    """Replace the log_f argument by a counting proxy (same values)."""
    if "log_f" in kwargs:
        log_f = kwargs["log_f"]
    else:
        log_f, args = args[0], args[1:]

    def counted(x):
        tracer.counts["lse_quad.integrand_batches"] += 1
        tracer.counts["lse_quad.integrand_points"] += int(getattr(x, "size", 1))
        return log_f(x)

    kwargs = {k: v for k, v in kwargs.items() if k != "log_f"}
    return (counted, *args), kwargs


def _eigen_mu_size(tracer, args, result):
    tracer.maxima["spectral.eigen_mu.N_max"] = max(
        tracer.maxima["spectral.eigen_mu.N_max"], int(args[0].n))


def _assembled_bytes(tracer, args, result):
    # computed from the matrix size, not measured traffic
    tracer.counts["discretization.assemble_kernel.computed_bytes"] += 8 * result.n ** 2


def _cache_nodes(tracer, args, result):
    tracer.counts["subordinate.SubordinateCache.nodes"] += int(args[0].grid.size)


_BEFORE = {
    "lse_quad.log_integral_exp": _count_integrand,
    "lse_quad.segment_log_integrals": _count_integrand,
}
_AFTER = {
    "spectral.eigen_mu": _eigen_mu_size,
    "discretization.assemble_kernel": _assembled_bytes,
    "subordinate.SubordinateCache": _cache_nodes,
}


# -- installing the wrappers --------------------------------------------------

def package_modules():
    """Import and return every ``subspec.*`` module."""
    pkg = importlib.import_module(PACKAGE)
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__))
    return [importlib.import_module(f"{PACKAGE}.{n}") for n in names]


def _span_name(fn) -> str:
    module = fn.__module__.removeprefix(PACKAGE + ".")
    qual = fn.__qualname__.removesuffix(".__init__")
    return f"{module}.{qual}"


def _defined_here(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables, reporting to `tracer`."""
    modules = package_modules()
    wrapped = {}  # id(original function) -> wrapper
    for module in modules:
        if module.__name__ == f"{PACKAGE}.cli":
            continue
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not _defined_here(obj, module):
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = tracer.wrap(_span_name(obj), obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(tracer, obj, module)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])


def _wrap_methods(tracer, cls, module):
    for name, member in list(vars(cls).items()):
        if not inspect.isfunction(member):
            continue  # properties, classmethods and staticmethods stay as they are
        if name == "__init__":
            # dataclass-generated constructors are not the package's code
            if member.__code__.co_filename != module.__file__:
                continue
        elif name.startswith("_"):
            continue
        setattr(cls, name, tracer.wrap(_span_name(member), member))
