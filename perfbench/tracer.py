"""Layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each layer's public entry points with wrappers
and ``Tracer.uninstall`` puts the originals back, so untraced operations
run the unmodified program.  A span wrapper times one call with
``perf_counter_ns``; the time its child spans cover is subtracted to give
the layer's *self time*.  Spans nest through one stack per tracer.  A run
makes from 10^5 to 10^6 spans, so they are folded into per-name totals as
they close instead of being kept one by one.

The rationals layer is counted, not timed: its calls last about a
microsecond, so a timer would cost more than the call.  Its time lands in
the self time of whichever layer called it (algebra, linalg or families).

A module-level function is replaced in every loaded ``polyharm`` module
that holds it, so calls through ``from .linalg import nullspace`` and the
like are seen too.  An entry point the program no longer has is reported
by ``missing`` and its metrics stay 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

# (layer metric prefix, module, attribute path) of every timed entry point.
# Several entry points may share one span name.
SPANS = (
    ("parser.parse", "polyharm.parser", "parse"),
    ("algebra.add", "polyharm.algebra", "Expr.__add__"),
    ("algebra.add", "polyharm.algebra", "Expr.__sub__"),
    ("algebra.mul", "polyharm.algebra", "Expr.__mul__"),
    ("algebra.mul", "polyharm.algebra", "Expr.__rmul__"),
    ("algebra.mul", "polyharm.algebra", "Expr.scale"),
    ("algebra.differentiate", "polyharm.algebra", "Expr.differentiate"),
    ("algebra.evaluate", "polyharm.algebra", "Expr.evaluate"),
    ("algebra.print", "polyharm.algebra", "Expr.__str__"),
    ("linalg.nullspace", "polyharm.linalg", "nullspace"),
    ("families.build", "polyharm.families", "AnsatzSystem.build"),
    ("families.kernel_assembly", "polyharm.families", "generate_kernel"),
    ("oracle.fd_tension", "polyharm.oracle", "fd_tension"),
    ("oracle.metric", "polyharm.oracle", "_metric_coefficients"),
)

# Counted-only rationals operators: (counter, attribute of GaussianRational).
COUNTS = (
    ("rationals.add_calls", "__add__"),
    ("rationals.add_calls", "__radd__"),
    ("rationals.add_calls", "__sub__"),
    ("rationals.add_calls", "__rsub__"),
    ("rationals.mul_calls", "__mul__"),
    ("rationals.mul_calls", "__rmul__"),
    ("rationals.div_calls", "__truediv__"),
    ("rationals.div_calls", "__rtruediv__"),
)

TENSION_SPAN = "geometries.tension"


class Tracer:
    """Per-name self time, call counts and extra counters of one traced run."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [start_ns, child_ns] per open span
        self._depth: Counter = Counter()  # open spans per name
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, on_result=None, on_args=None):
        """Wrap ``fn`` in a span; the hooks run on outermost calls only,
        ``on_args`` inside the span and ``on_result`` after it."""
        stack, depth = self._stack, self._depth
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = depth[name] == 0
            depth[name] += 1
            frame = [clock(), 0]
            stack.append(frame)
            try:
                if outermost and on_args is not None:
                    on_args(args)
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if outermost:
                calls[name] += 1
                if on_result is not None:
                    on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def root(self, fn, *args):
        """Run one operation as the root span "op"."""
        return self.span("op", fn)(*args)

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_attribute(self, module, path: str, make) -> bool:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if attr not in vars(owner):
            return False
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            self._patch(owner, attr, staticmethod(make(original.__func__)))
            return True
        replacement = make(original)
        if owner is module:
            # also rebind the copies other modules imported by name
            for other in _program_modules():
                if getattr(other, attr, None) is original:
                    self._patch(other, attr, replacement)
        else:
            self._patch(owner, attr, replacement)
        return True

    def install(self) -> None:
        modules = {m.__name__: m for m in _program_modules()}
        hooks = {
            "linalg.nullspace": {"on_args": self._on_nullspace},
            "families.kernel_assembly": {"on_result": self._on_kernel},
        }
        for name, module_name, path in SPANS:
            make = lambda fn, name=name: self.span(name, fn, **hooks.get(name, {}))
            if not self._wrap_attribute(modules[module_name], path, make):
                self.missing.append(f"{module_name}.{path}")
        rationals = modules["polyharm.rationals"].GaussianRational
        for name, attr in COUNTS:
            if attr in vars(rationals):
                self._patch(rationals, attr, self.counted(name, vars(rationals)[attr]))
        # Every geometry class that defines its own tension rule.
        geometries = modules["polyharm.geometries"]
        for cls in vars(geometries).values():
            if isinstance(cls, type) and "tension" in vars(cls):
                self._patch(
                    cls, "tension", self.span(TENSION_SPAN, vars(cls)["tension"], self._on_tension)
                )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters fed by hooks ----------------------------------------------------

    def _on_tension(self, result) -> None:
        self.counts["geometries.tension_terms_out"] += len(result.terms)

    def _on_nullspace(self, args) -> None:
        matrix = args[0]
        self.counts["linalg.entries"] += matrix.rows * matrix.cols
        self.counts["linalg.nonzero"] += sum(1 for e in matrix.entries if not e.is_zero())

    def _on_kernel(self, result) -> None:
        self.counts["families.kernel_dim"] += len(result)



def _program_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "polyharm" or name.startswith("polyharm."))
    ]
