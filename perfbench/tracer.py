"""Layer tracing from outside the program: wrappers around the public
functions of the ``teamsem`` modules (the six layers, and any module added
later) and the hot methods of ``Team``, ``Model`` and ``Evaluator``.

Each wrapped call is a span named ``<module>.<function>`` with a parent (the
innermost enclosing span).  Spans are aggregated in memory as they close:
per name the calls, total and self time, recursive calls, generator items
and non-None results; per (parent, child) edge the calls and total time.
Self time is a span's duration minus the time its child spans cover; one
thread runs everything, so children never overlap.

A function imported by name into another module (``evaluator.tarski_eval``,
``evaluator.free_variables``, ``teamsem.evaluate``) is replaced in every
namespace that holds it, so calls from inside the program are seen too.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time

MODULES = ("syntax", "structures", "evaluator", "transforms", "analysis", "cli")

#: methods traced on the value classes, as (module, class, methods)
METHODS = (
    ("structures", "Team", ("__init__", "restrict_vars", "with_rows", "project_rows")),
    ("structures", "Model", ("__init__",)),
    ("evaluator", "Evaluator", ("__init__", "evaluate", "satisfying_subteams")),
)


def _span_name(module: str, qual: str) -> str:
    return f"{module}.{qual.replace('__init__', 'init')}"


def formula_nodes(value) -> int:
    """Node count of a formula (or of a list or tuple of formulas)."""
    from teamsem.syntax import Formula

    if isinstance(value, (list, tuple)):
        return sum(formula_nodes(v) for v in value)
    if not isinstance(value, Formula):
        return 0
    count, todo = 0, [value]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(v for v in vars(node).values() if isinstance(v, Formula))
    return count


class Tracer:
    """Span aggregation plus the patching that feeds it."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child time]
        self.active: dict[str, int] = {}
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, recursive, items, nonnull]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total]
        self.transform_depth = 0
        self.out_nodes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def enter(self, name: str):
        depth = self.active.get(name, 0)
        self.active[name] = depth + 1
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0, 0, 0]
        stat[0] += 1
        if depth:
            stat[3] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        self.active[name] -= 1
        stat = self.stats[name]
        stat[1] += duration
        stat[2] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent is not None else None, name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration

    # -- wrappers

    def _wrap(self, name: str, fn):
        tracer = self
        is_transform = name.startswith("transforms.")

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.enter(name)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                stat = tracer.stats[name]
                while True:
                    tracer.enter(name)
                    stat[0] -= 1  # a resumption is not a new call
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    stat[4] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            outermost = is_transform and tracer.transform_depth == 0
            if is_transform:
                tracer.transform_depth += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                if is_transform:
                    tracer.transform_depth -= 1
            if result is not None:
                tracer.stats[name][5] += 1
            if outermost:
                tracer.out_nodes += formula_nodes(result)
            return result

        return traced

    def install(self):
        """Patch every namespace; ``uninstall`` restores them."""
        package = importlib.import_module("teamsem")
        # the six layers, plus any module the package gains later, so that
        # program work never falls outside every span
        names = {m.name for m in pkgutil.iter_modules(package.__path__)
                 if not m.name.startswith("_")} | set(MODULES)
        modules = {m: importlib.import_module(f"teamsem.{m}") for m in sorted(names)}
        namespaces = [package, *modules.values()]
        originals: dict[int, tuple[object, object]] = {}
        for mname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(_span_name(mname, attr), obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for mname, cname, methods in METHODS:
            cls = getattr(modules[mname], cname)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(_span_name(mname, f"{cname}.{meth}"), fn))

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # -- results

    def module_self(self) -> dict[str, float]:
        """Self time per module: the six layers, and any other module that
        has spans."""
        out = {m: 0.0 for m in MODULES}
        for name, entry in self.stats.items():
            module = name.split(".", 1)[0]
            if module != "harness":
                out[module] = out.get(module, 0.0) + entry[2]
        return out

    def to_json(self) -> dict:
        return {
            "spans": {name: dict(zip(("calls", "total_s", "self_s", "recursive",
                                      "items", "nonnull"), entry))
                      for name, entry in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": e[0], "total_s": e[1]}
                      for (p, c), e in sorted(self.edges.items(), key=lambda kv: -kv[1][1])],
            "transforms_out_nodes": self.out_nodes,
        }
