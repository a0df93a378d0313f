"""Outside-in span tracer for pcmem.

The tracer wraps module-level functions of an imported package without
touching its source. pcmem modules bind each other's functions with
``from .core import compute_errors``, so patching ``pcmem.core`` alone
would miss the calls made from ``pcmem.experiments`` or ``pcmem.memory``.
``install`` therefore replaces the function object *by identity* in every
loaded module of the package, and ``uninstall`` puts the originals back.

Spans are aggregated in memory per target: calls, inclusive time, self
time (inclusive time minus the time of traced children), and two counters
computed from the call itself (matmul flops from argument shapes, and
iterations from the returned value). A target whose function no longer
exists is listed in ``missing`` and reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    flops: float = 0.0
    iterations: int = 0


@dataclass(frozen=True)
class Target:
    """One function to trace: ``<package>.<module>.<function>``.

    ``flops(args, kwargs)`` returns the floating-point operations the call
    itself issues (not counting traced children); ``iterations(result)``
    returns an iteration count read from the return value.
    """

    module: str
    function: str
    flops: Optional[Callable] = None
    iterations: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


class Tracer:
    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.stats = {t.name: SpanStats() for t in targets}
        self.missing: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {t.name: SpanStats() for t in self.targets}

    def snapshot(self) -> dict[str, SpanStats]:
        return {k: SpanStats(**vars(v)) for k, v in self.stats.items()}

    def _modules(self):
        prefix = self.package + "."
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = self._modules()
        for target in self.targets:
            home = sys.modules.get(f"{self.package}.{target.module}")
            original = getattr(home, target.function, None) if home else None
            if not callable(original):
                self.missing.append(target.name)
                continue
            wrapped = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn, target: Target):
        stack = self._stack
        name = target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = self.stats[name]
                rec.calls += 1
                rec.total_s += elapsed
                rec.self_s += elapsed - children
                self._count(target, rec, args, kwargs, result)

        return traced

    def _count(self, target, rec, args, kwargs, result) -> None:
        # A counter that no longer fits the traced signature must not break
        # the run: it stops counting and the error is reported instead.
        try:
            if target.flops is not None:
                rec.flops += target.flops(args, kwargs)
            if target.iterations is not None and result is not None:
                rec.iterations += int(target.iterations(result))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.counter_errors.setdefault(target.name, f"{type(exc).__name__}: {exc}")
