"""Intraprocedural dataflow with interprocedural function summaries.

The checkpoint-completeness family (DRC151-153) needs to know, for a
kernel class, *which attributes of the object are written or mutated on
the run/drain paths* and *which attributes a checkpoint codec reads* —
including effects that happen in another module entirely (a kernel that
hands itself to a helper function elsewhere, which writes ``switch._x``
fields back).  The RNG rules reuse the
same call-resolution machinery.

The engine computes, per function, a :class:`ParamEffects` summary for
each parameter: attribute *reads*, attribute *writes* (``p.a = v``,
``p.a += v``), and attribute *mutations* — stores through a subscript or
nested attribute (``p.a[i] = v``, ``p.a.b = v``), method calls through
the attribute (``p.a.append(x)``, ``bank = p.banks[i]; bank.store(w)``),
and calls of bound-method aliases (``f = p.a.append; f(x)``).  Calls are
resolved through the :class:`~repro.drc.graph.ProjectGraph` (module
*and* function-local imports) and callee summaries are merged into the
caller's, so effects propagate across module boundaries.  ``p.m()``
where ``m`` is a method of the enclosing class follows into the method;
recursion is cut with an in-progress guard (the partial summary is a
sound under-approximation for the cyclic edge only).

Every recorded effect keeps its *sites* — ``(module, node)`` pairs — so
rules can anchor findings at the first offending line and honour
``# drc: checkpoint-exempt`` markers written on any assignment site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.drc.graph import FunctionInfo, ProjectGraph, imports_in, module_qname
from repro.drc.rules import LintModule

#: per-attribute site lists are capped (anchoring needs the first few)
_MAX_SITES = 16

Site = tuple[LintModule, ast.AST]

# local alias kinds: the object itself, or a value reached through one
# attribute of it (`x = p.a`, `x = p.a[i]`, `f = p.a.append` all map to
# ("attr", param, "a") — mutating through x mutates p.a)
_Alias = tuple[str, str] | tuple[str, str, str]


@dataclass
class ParamEffects:
    """Attribute-level effects of one function on one parameter."""

    reads: dict[str, list[Site]] = field(default_factory=dict)
    writes: dict[str, list[Site]] = field(default_factory=dict)
    mutates: dict[str, list[Site]] = field(default_factory=dict)

    @staticmethod
    def _record(bucket: dict[str, list[Site]], attr: str, site: Site) -> None:
        sites = bucket.setdefault(attr, [])
        if len(sites) < _MAX_SITES:
            sites.append(site)

    def read(self, attr: str, site: Site) -> None:
        self._record(self.reads, attr, site)

    def write(self, attr: str, site: Site) -> None:
        self._record(self.writes, attr, site)

    def mutate(self, attr: str, site: Site) -> None:
        self._record(self.mutates, attr, site)

    def merge(self, other: "ParamEffects") -> None:
        for bucket, theirs in ((self.reads, other.reads),
                               (self.writes, other.writes),
                               (self.mutates, other.mutates)):
            for attr, sites in theirs.items():
                for site in sites:
                    self._record(bucket, attr, site)

    def is_mutating(self) -> bool:
        return bool(self.writes or self.mutates)

    def mutable_attrs(self) -> dict[str, list[Site]]:
        """attr -> mutation sites (writes and mutations, line-ordered)."""
        out: dict[str, list[Site]] = {}
        for bucket in (self.writes, self.mutates):
            for attr, sites in bucket.items():
                out.setdefault(attr, []).extend(sites)
        for sites in out.values():
            sites.sort(key=lambda s: (s[0].relpath,
                                      getattr(s[1], "lineno", 0)))
        return out

    def accessed_attrs(self) -> set[str]:
        return set(self.reads) | set(self.mutates)


def param_names(fn: FunctionInfo) -> list[str]:
    a = fn.node.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]


def _peel_chain(expr: ast.expr) -> tuple[ast.expr, list[str]]:
    """Root expression and the attribute names along an access chain,
    outermost last (``p.a[i].b`` -> root ``p``, attrs ``["a", "b"]``)."""
    attrs: list[str] = []
    while True:
        if isinstance(expr, ast.Attribute):
            attrs.append(expr.attr)
            expr = expr.value
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        else:
            return expr, list(reversed(attrs))


class DataflowEngine:
    """Memoized per-function parameter-effect summaries over a graph."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self._cache: dict[str, dict[str, ParamEffects]] = {}
        self._in_progress: set[str] = set()

    # -- public API --------------------------------------------------------

    def function_summary(self, fn: FunctionInfo,
                         follow: bool = True) -> dict[str, ParamEffects]:
        """Per-parameter effects of ``fn`` (interprocedural if follow)."""
        if not follow:
            return self._analyze(fn, follow=False)
        cached = self._cache.get(fn.qname)
        if cached is not None:
            return cached
        if fn.qname in self._in_progress:
            return {}
        self._in_progress.add(fn.qname)
        try:
            summary = self._analyze(fn, follow=True)
        finally:
            self._in_progress.discard(fn.qname)
        self._cache[fn.qname] = summary
        return summary

    def object_effects(self, cls_qname: str,
                       entries: list[str]) -> ParamEffects:
        """Effects on an instance of ``cls_qname`` reachable from the
        named entry methods (e.g. ``["run", "drain"]``)."""
        methods = self.graph.methods_of(cls_qname)
        total = ParamEffects()
        for name in entries:
            fn = methods.get(name)
            if fn is None:
                continue
            names = param_names(fn)
            if not names:
                continue
            summary = self.function_summary(fn)
            eff = summary.get(names[0])
            if eff is not None:
                total.merge(eff)
        return total

    # -- analysis ----------------------------------------------------------

    def _analyze(self, fn: FunctionInfo, follow: bool) -> dict[str, ParamEffects]:
        mod = fn.module
        params = param_names(fn)
        effects: dict[str, ParamEffects] = {p: ParamEffects() for p in params}
        if not params:
            return effects
        nodes = mod.walk(fn.node)
        local_env = imports_in(
            [s for s in nodes if isinstance(s, ast.stmt)],
            module_qname(mod.relpath), False,
        )
        aliases = self._collect_aliases(nodes, set(params))

        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if (isinstance(node.value, ast.Name)
                        and node.value.id in effects):
                    effects[node.value.id].read(node.attr, (mod, node))
                else:
                    aroot = node.value
                    if (isinstance(aroot, ast.Name) and aroot.id in aliases
                            and aliases[aroot.id][0] == "obj"):
                        effects[aliases[aroot.id][1]].read(node.attr,
                                                           (mod, node))
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                 ast.Delete)):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.Delete):
                    targets = node.targets
                else:
                    targets = [node.target]
                for target in targets:
                    for leaf in self._store_leaves(target):
                        self._record_store(leaf, effects, aliases,
                                           mod, node)
            elif isinstance(node, ast.Call):
                self._handle_call(node, fn, effects, aliases, local_env,
                                  mod, follow)
        return effects

    @staticmethod
    def _store_leaves(target: ast.expr) -> list[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[ast.expr] = []
            for elt in target.elts:
                out.extend(DataflowEngine._store_leaves(elt))
            return out
        if isinstance(target, ast.Starred):
            return DataflowEngine._store_leaves(target.value)
        return [target]

    def _record_store(self, target: ast.expr,
                      effects: dict[str, ParamEffects],
                      aliases: dict[str, _Alias],
                      mod: LintModule, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            return  # local rebinding
        root, attrs = _peel_chain(target)
        if not isinstance(root, ast.Name) or not attrs:
            return
        site: Site = (mod, target)
        if root.id in effects:
            plain = (isinstance(target, ast.Attribute)
                     and isinstance(target.value, ast.Name))
            if plain and len(attrs) == 1:
                effects[root.id].write(attrs[0], site)
            else:
                effects[root.id].mutate(attrs[0], site)
        else:
            alias = aliases.get(root.id)
            if alias is None:
                return
            if alias[0] == "obj":
                if len(attrs) == 1 and isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name):
                    effects[alias[1]].write(attrs[0], site)
                else:
                    effects[alias[1]].mutate(attrs[0], site)
            else:
                effects[alias[1]].mutate(alias[2], site)

    def _collect_aliases(self, nodes: list[ast.AST],
                         params: set[str]) -> dict[str, _Alias]:
        """Local aliases of the params over a function's walked nodes."""
        aliases: dict[str, _Alias] = {}
        # iterate to a fixpoint so alias-of-alias chains resolve (2 passes
        # cover everything seen in practice; cap at 4 defensively)
        for _ in range(4):
            changed = False
            for node in nodes:
                pairs: list[tuple[ast.expr, ast.expr]] = []
                if isinstance(node, ast.Assign) and len(node.targets) >= 1:
                    pairs = [(t, node.value) for t in node.targets]
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    pairs = [(node.target, node.iter)]
                for target, value in pairs:
                    if not isinstance(target, ast.Name):
                        continue
                    root, attrs = _peel_chain(value)
                    alias: _Alias | None = None
                    if isinstance(root, ast.Name):
                        if root.id in params:
                            alias = (("obj", root.id) if not attrs
                                     else ("attr", root.id, attrs[0]))
                        elif root.id in aliases:
                            prev = aliases[root.id]
                            if prev[0] == "obj":
                                alias = (("obj", prev[1]) if not attrs
                                         else ("attr", prev[1], attrs[0]))
                            else:
                                alias = prev
                    if alias is not None and aliases.get(target.id) != alias:
                        aliases[target.id] = alias
                        changed = True
            if not changed:
                break
        return aliases

    # -- calls -------------------------------------------------------------

    def _handle_call(self, call: ast.Call, fn: FunctionInfo,
                     effects: dict[str, ParamEffects],
                     aliases: dict[str, _Alias],
                     local_env: dict[str, str],
                     mod: LintModule, follow: bool) -> None:
        func = call.func

        def owner_method(name: str) -> FunctionInfo | None:
            if fn.owner is None:
                return None
            return self.graph.methods_of(fn.owner).get(name)

        # receiver analysis: calls through the tracked object
        if isinstance(func, ast.Attribute):
            root, attrs = _peel_chain(func)
            if isinstance(root, ast.Name):
                if root.id in effects:
                    if len(attrs) == 1:
                        method = owner_method(attrs[0])
                        if method is not None and follow:
                            self._follow(call, method, root.id, 1,
                                         effects, aliases)
                        elif method is None and fn.owner is None:
                            # method call on a bare param of a free
                            # function: conservatively the object itself
                            # is mutated ("" = the whole object)
                            effects[root.id].mutate("", (mod, call))
                        return
                    effects[root.id].mutate(attrs[0], (mod, call))
                    return
                alias = aliases.get(root.id)
                if alias is not None and alias[0] == "attr":
                    effects[alias[1]].mutate(alias[2], (mod, call))
                    return
                if alias is not None and alias[0] == "obj":
                    if len(attrs) == 1:
                        method = owner_method(attrs[0])
                        if method is not None and follow:
                            self._follow(call, method, alias[1], 1,
                                         effects, aliases)
                        return
                    effects[alias[1]].mutate(attrs[0], (mod, call))
                    return
            elif (isinstance(root, ast.Call)
                  and isinstance(root.func, ast.Name)
                  and root.func.id == "super" and attrs):
                method = owner_method(attrs[0])
                if method is not None and follow and effects:
                    selfname = next(iter(effects))
                    self._follow(call, method, selfname, 1, effects, aliases)
                return
        elif isinstance(func, ast.Name):
            alias = aliases.get(func.id)
            if alias is not None:
                if alias[0] == "attr":
                    method = owner_method(alias[2])
                    if method is not None and follow:
                        self._follow(call, method, alias[1], 1,
                                     effects, aliases)
                    else:
                        effects[alias[1]].mutate(alias[2], (mod, call))
                return

        # plain project-function call: map arguments onto callee summary
        if not follow:
            return
        qname = self.graph.resolve_node(mod, func, local_env)
        if qname is None:
            return
        callee = self.graph.functions.get(qname)
        if callee is None:
            return
        self._map_args(call, callee, 0, effects, aliases, mod)

    def _follow(self, call: ast.Call, callee: FunctionInfo,
                obj_param: str, offset: int,
                effects: dict[str, ParamEffects],
                aliases: dict[str, _Alias]) -> None:
        """Bound-method call: merge callee's self-effects onto obj_param,
        then map the remaining arguments."""
        names = param_names(callee)
        if not names:
            return
        summary = self.function_summary(callee)
        eff = summary.get(names[0])
        if eff is not None and obj_param in effects:
            effects[obj_param].merge(eff)
        self._map_args(call, callee, offset, effects, aliases, callee.module)

    def _map_args(self, call: ast.Call, callee: FunctionInfo, offset: int,
                  effects: dict[str, ParamEffects],
                  aliases: dict[str, _Alias], mod: LintModule) -> None:
        names = param_names(callee)
        summary = self.function_summary(callee)

        def bind(arg: ast.expr, pname: str | None) -> None:
            if pname is None:
                return
            eff = summary.get(pname)
            if eff is None:
                return
            root, attrs = _peel_chain(arg)
            if not isinstance(root, ast.Name):
                return
            if root.id in effects and not attrs:
                effects[root.id].merge(eff)
                return
            target: tuple[str, str] | None = None
            if root.id in effects and attrs:
                target = (root.id, attrs[0])
            else:
                alias = aliases.get(root.id)
                if alias is not None and alias[0] == "obj":
                    if not attrs:
                        effects[alias[1]].merge(eff)
                        return
                    target = (alias[1], attrs[0])
                elif alias is not None and alias[0] == "attr":
                    target = (alias[1], alias[2])
            if target is not None and eff.is_mutating():
                effects[target[0]].mutate(target[1], (mod, call))

        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            idx = i + offset
            bind(arg, names[idx] if idx < len(names) else None)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in names:
                bind(kw.value, kw.arg)
