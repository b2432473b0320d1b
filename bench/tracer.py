"""Per-layer call counts and times, recorded from outside the program.

``Tracer.install()`` wraps every public function defined in a loaded
``groupdet.*`` module, and the public methods plus ``__mul__`` of the ring
element classes, then rebinds every module attribute that still points at
an original function.  The rebinding matters because ``cli``, ``verify``
and ``search`` import ``heisenberg_measure``, ``measure_h3`` and
``det_bareiss`` by name: patching only the defining module would miss
those calls.

Layer keys are ``<module>.<function>`` or ``<module>.<Class>.<method>``,
with the package prefix and a leading underscore dropped from the module
(``groupdet._roots`` reports as ``roots``).  ``det_bareiss`` is also split
by the type of its entries (``exactdet.det_bareiss.int``, ``.cycint``,
``.intpoly``), because one elimination serves three very different rings.

Each key reports ``calls``, ``busy_ms`` (inclusive, counted once for
recursive calls) and ``self_ms`` (exclusive of traced callees).  Only
public names are touched, so a function that a later change deletes is
simply missing from ``snapshot()`` and reported as absent by the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "groupdet"
# Classes whose methods are wrapped on the class, so that every instance
# and every operator dispatch goes through the wrapper.
RING_CLASSES = ("cyclotomic.CycInt", "polyring.IntPoly")
RING_DUNDERS = ("__mul__",)
# Functions whose argument types split their key.
SPLIT_BY_ENTRY = ("exactdet.det_bareiss",)
# Functions whose argument sizes are summed as an extra counter.
DEGREE_SUM = {"roots.polynomial_roots": "roots.degree_sum"}


def _module_key(name: str) -> str:
    return name[len(PACKAGE) + 1:].lstrip("_")


def _entry_type(rows) -> str:
    try:
        return type(rows[0][0]).__name__.lower()
    except (IndexError, TypeError, KeyError):
        return "other"


class Tracer:
    def __init__(self):
        self.stats = {}  # key -> [calls, busy_s, self_s]
        self.counters = {}
        self._depth = {}
        self._child_time = []  # one accumulator per active traced frame

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        self._depth[key] = 0
        split = key in SPLIT_BY_ENTRY
        degree_key = DEGREE_SUM.get(key)
        if degree_key:
            self.counters[degree_key] = 0
        depth = self._depth
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sub = None
            if split and args:
                sub = self.stats.setdefault(f"{key}.{_entry_type(args[0])}", [0, 0.0, 0.0])
                sub[0] += 1
            if degree_key and args:
                self.counters[degree_key] += max(len(args[0]) - 1, 0)
            stats[0] += 1
            depth[key] += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_time.pop()
                stats[2] += dt - inner
                if child_time:
                    child_time[-1] += dt
                depth[key] -= 1
                if depth[key] == 0:
                    stats[1] += dt
                    if sub is not None:
                        sub[1] += dt
                if sub is not None:
                    sub[2] += dt - inner

        return wrapper

    def _wrap_class(self, key: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in RING_DUNDERS:
                continue
            if isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(f"{key}.{attr}", val.__func__))
            elif inspect.isfunction(val):
                new = self._wrap(f"{key}.{attr}", val)
            else:
                continue
            setattr(cls, attr, new)

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap the loaded ``groupdet`` modules in this process."""
        tracer = cls()
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, mod in modules.items():
            mkey = _module_key(name)
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != name:
                    continue
                key = f"{mkey}.{attr}"
                if inspect.isfunction(val):
                    wrappers[id(val)] = (val, tracer._wrap(key, val))
                elif inspect.isclass(val) and key in RING_CLASSES:
                    tracer._wrap_class(key, val)
        for mod in [sys.modules.get(PACKAGE), *modules.values()]:
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        return tracer

    def snapshot(self) -> dict:
        """Plain-data copy: {"layers": {key: {calls, busy_ms, self_ms}},
        "counters": {name: value}}."""
        return {
            "layers": {k: {"calls": v[0], "busy_ms": v[1] * 1e3, "self_ms": v[2] * 1e3}
                       for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }
