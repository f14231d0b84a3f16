"""Timing wrappers installed on tetspine functions from outside the package.

`install(tracer)` replaces each traced function in every loaded `tetspine`
module that binds it, matched by identity, so calls made through
`from .spine import dual_spine` style imports are caught too. A target the
code under test does not define is recorded as absent, not as an error.

The tracer keeps a stack of open calls. A traced call becomes a span (id,
parent span id, name, subject, start, end). Functions called once per mask or
per surface are aggregated into their parent span instead, as a call count
and a summed duration. Self time is a call's duration minus the time its
direct children (spans and aggregated calls) cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "tetspine"


@dataclass(frozen=True)
class Target:
    """A traced function: `attr` in module `tetspine.<module>`, reported as `name`."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    aggregate: bool = False  # called per mask or per surface


TARGETS: tuple[Target, ...] = (
    Target("lens.build_Tpq", "lens", "build_Tpq"),
    Target("moves.pachner_23", "moves", "pachner_23"),
    Target("moves.pachner_32", "moves", "pachner_32"),
    Target("triangulation.Triangulation.init", "triangulation", "Triangulation.__init__"),
    Target("triangulation.is_isomorphic_to", "triangulation", "Triangulation.is_isomorphic_to"),
    Target("homology.h1", "homology", "h1"),
    Target("spine.dual_spine", "spine", "dual_spine"),
    Target("spine.enumerate_simple_subpolyhedra", "spine", "enumerate_simple_subpolyhedra"),
    Target("spine.subpolyhedron", "spine", "subpolyhedron", aggregate=True),
    Target("spine.t_spine", "spine", "t_spine"),
    Target("spine.t_manifold", "spine", "t_manifold"),
    Target("enum.enumerate_masks", "_enum", "enumerate_masks"),
    Target("surfaces.census", "surfaces", "census"),
    Target("surfaces.type_I_surface", "surfaces", "type_I_surface", aggregate=True),
    Target("surfaces.type_II_surface", "surfaces", "type_II_surface", aggregate=True),
    Target("surfaces.split_components", "surfaces", "split_components", aggregate=True),
    Target("surfaces.reconstruct", "surfaces", "reconstruct", aggregate=True),
    Target("cli.main", "cli", "main"),
)

# Only these functions report the exceptions raised through them.
ERROR_TARGETS = ("moves.pachner_23", "moves.pachner_32")


def _surface_subpolyhedra(result) -> int:
    return sum(1 for q in result if q.is_surface)


# Work counts read off return values: count name -> (target name, counter).
COUNTS = {
    "enum.masks": ("enum.enumerate_masks", len),
    "spine.surface_subpolyhedra": ("spine.enumerate_simple_subpolyhedra", _surface_subpolyhedra),
    "surfaces.components": ("surfaces.split_components", len),
    "surfaces.entries": ("surfaces.census", len),
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Spans and per-function totals of the calls made while it is installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.subject = ""
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple[int, str], list] = {}
        self._stack: list[list] = []  # [name, start, child_time, span id or None]
        self._next_id = 1
        self.reset()

    def reset(self) -> None:
        """Start new per-function totals and counts; recorded spans are kept."""
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return 0

    def enter(self, name: str, aggregate: bool) -> None:
        span_id = None
        if not aggregate:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self, failed: bool = False) -> None:
        end = self.clock()
        name, start, child_time, span_id = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.s += dur
        stat.self_s += dur - child_time
        stat.errors += failed
        parent = self._parent_span()
        if span_id is None:
            agg = self.aggregates.setdefault((parent, name), [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        else:
            self.spans.append((span_id, parent, name, self.subject, start, end))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def snapshot(self) -> dict[str, tuple]:
        """name -> (calls, s, self_s, errors) since the last reset."""
        return {n: (st.calls, st.s, st.self_s, st.errors) for n, st in self.stats.items()}


def _wrap(tracer: Tracer, target: Target, func):
    counters = [(cname, counter) for cname, (tname, counter) in COUNTS.items() if tname == target.name]
    name, aggregate = target.name, target.aggregate

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.enter(name, aggregate)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            tracer.exit(failed=True)
            raise
        tracer.exit()
        for cname, counter in counters:
            tracer.count(cname, counter(result))
        return result

    return wrapper


def _package_modules() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class Installation:
    """The replacements made by `install`; `uninstall` puts the originals back."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self.bindings: dict[str, list[str]] = {}  # target name -> "module.attr" replaced
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _resolve(target: Target):
    """(owner, attribute, original) or None when the code does not define it."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{target.module}")
    except ImportError:
        return None
    owner_name, _, method = target.attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        if owner is None or method not in vars(owner):
            return None
        return owner, method, vars(owner)[method]
    func = vars(mod).get(method)
    return None if func is None else (mod, method, func)


def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> Installation:
    inst = Installation()
    for target in targets:
        found = _resolve(target)
        if found is None:
            inst.absent.append(target.name)
            continue
        owner, attr, orig = found
        wrapper = _wrap(tracer, target, orig)
        bound = []
        if isinstance(owner, type):
            inst._replace(owner, attr, wrapper)
            bound.append(f"{owner.__module__}.{owner.__name__}.{attr}")
        else:
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        inst._replace(mod, key, wrapper)
                        bound.append(f"{mod.__name__}.{key}")
        inst.bindings[target.name] = sorted(bound)
    return inst
