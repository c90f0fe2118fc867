"""Static half of the design-rule checker: the AST lint rules.

Each rule has a stable ``DRC1xx`` code and checks one piece of repository
discipline that keeps the reproduction trustworthy:

* **determinism** (DRC101-DRC104) — the simulation packages (``sim``,
  ``core``, ``switches``, ``fabric``, ``network``) must be bit-repeatable
  per seed, so wall-clock time, the global :mod:`random` module, numpy's
  global RNG state, and iteration over unordered sets are banned there;
  all randomness flows through :func:`repro.sim.rng.make_rng`;
* **telemetry discipline** (DRC111-DRC112) — metrics are created through
  the :class:`~repro.telemetry.metrics.MetricsRegistry`, and every call
  site of a metric name uses one consistent label set, so exported series
  merge instead of fragmenting;
* **scenario-registry coverage** (DRC121-DRC122) — every public switch
  kernel is reachable through :mod:`repro.scenario.registry` and the
  registry never references a kernel that does not exist; every admission
  policy is registered in :data:`repro.policy.POLICIES` and every drop
  cause appears in the ``DROP_CAUSES`` taxonomy map;
* **API shape** (DRC131) — every switch model exposes the harness/run
  interface (the slotted hook trio, ``run`` on the word-level kernels).

Rules are *modules in, violations out*: per-module rules get one parsed
:class:`LintModule`; project rules get the whole collection and can
cross-reference files.  Suppress a finding on its line with
``# drc: disable=DRC101`` (comma-separate several codes; a bare
``# drc: disable`` silences every rule on that line) — see
:mod:`repro.drc.linter`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.drc.graph import ClassInfo, ProjectGraph

#: top-level ``repro`` subpackages whose code must be seed-deterministic
DETERMINISM_PACKAGES = frozenset({"sim", "core", "switches", "fabric", "network"})

#: wall-clock calls that make a run irreproducible (DRC101)
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

#: the only ``numpy.random`` attributes that do not touch global state (DRC103)
_NUMPY_RNG_OK = frozenset({
    "Generator", "default_rng", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "SFC64", "MT19937",
})

#: metric classes that must only be instantiated by the registry (DRC111)
_METRIC_CLASSES = frozenset({"CounterMetric", "GaugeMetric", "HistogramMetric"})

#: registry factory method names whose label keywords DRC112 compares
_REGISTRY_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: non-label keyword arguments of the registry factories
_FACTORY_OPTION_KEYWORDS = frozenset({"edges"})

#: word-level kernels that must expose the harness ``run`` interface (DRC131)
#: and be reachable from the scenario registry (DRC121)
_WORD_KERNELS = frozenset({
    "PipelinedSwitch", "FastPipelinedSwitch", "BatchPipelinedSwitch",
    "WideMemorySwitch", "SplitPipelinedBuffer",
})


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    code: str
    path: str  # posix-style path as given to the linter
    line: int  # 1-based
    col: int  # 1-based (SARIF convention)
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintModule:
    """One parsed Python file plus the location facts rules key off."""

    path: Path
    relpath: str  # posix path relative to the lint invocation
    tree: ast.Module
    source: str
    package: str | None  # top-level subpackage under ``repro`` ("core", ...)
    in_src: bool  # lives under src/repro (product code, not tests/examples)
    #: node -> its subtree in ``ast.walk`` order (see :meth:`walk`)
    _walks: dict[ast.AST, list[ast.AST]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def walk(self, node: ast.AST | None = None) -> list[ast.AST]:
        """``list(ast.walk(node))`` for a node of this module's tree (the
        whole tree when ``node`` is None), computed once per node.

        Every rule that walks a subtree goes through here, so a lint run
        walks each subtree at most once however many rules look at it.
        The list is shared between callers: iterate it, never mutate it.
        """
        root = self.tree if node is None else node
        nodes = self._walks.get(root)
        if nodes is None:
            # breadth-first like ast.walk: children are appended in
            # iter_child_nodes order while the loop reads the list
            nodes = [root]
            for cur in nodes:
                for name in cur._fields:
                    value = getattr(cur, name, None)
                    if isinstance(value, ast.AST):
                        nodes.append(value)
                    elif isinstance(value, list):
                        nodes.extend(v for v in value
                                     if isinstance(v, ast.AST))
            self._walks[root] = nodes
        return nodes

    @classmethod
    def parse(cls, path: Path, relpath: str, source: str) -> "LintModule":
        parts = Path(relpath).parts
        package: str | None = None
        in_src = False
        if "repro" in parts:
            i = parts.index("repro")
            in_src = i > 0 and parts[i - 1] == "src"
            rest = parts[i + 1:]
            package = rest[0] if len(rest) > 1 else ""
        return cls(path=path, relpath=relpath, tree=ast.parse(source),
                   source=source, package=package, in_src=in_src)


@dataclass
class Project:
    """The whole lint invocation: parsed modules plus the lazily built
    whole-program graph project rules resolve names through."""

    mods: list[LintModule]
    _graph: "ProjectGraph | None" = field(default=None, repr=False)
    #: DRC001 findings for files a project analysis could not finish
    errors: list[Violation] = field(default_factory=list)

    def unanalyzable(self, mod: LintModule, what: str) -> None:
        """Report ``mod`` as DRC001 because ``what`` could not finish on
        it; the analysis goes on with the other files."""
        self.errors.append(Violation(
            "DRC001", mod.relpath, 1, 1, f"file could not be analyzed: {what}"))

    @property
    def graph(self) -> "ProjectGraph":
        if self._graph is None:
            from repro.drc.graph import ProjectGraph

            self._graph = ProjectGraph(self.mods)
        return self._graph


class Rule:
    """Base class: per-module or project-wide checks (see module doc).

    ``scope`` decides where the engine runs the rule ("module" rules run
    per file, possibly in worker processes, and their findings are cached
    per file; "project" rules run once over the whole collection).
    ``version`` feeds the incremental-cache fingerprint: bump it whenever
    a change to the rule can alter its findings, so stale cached results
    are invalidated.
    """

    code: str = "DRC000"
    name: str = ""
    summary: str = ""
    scope: str = "module"
    version: int = 1

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Violation]:
        return iter(())

    def _hit(self, mod: LintModule, node: ast.AST, message: str) -> Violation:
        return Violation(self.code, mod.relpath, getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0) + 1, message)


RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if cls.code in RULES:
        raise AssertionError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def rule_catalog() -> list[Rule]:
    """Every registered rule, in code order (for docs, SARIF, ``--help``)."""
    return [RULES[code] for code in sorted(RULES)]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _deterministic_scope(mod: LintModule) -> bool:
    return mod.in_src and mod.package in DETERMINISM_PACKAGES


@register
class WallClockRule(Rule):
    code = "DRC101"
    name = "wall-clock-in-sim"
    summary = ("simulation packages must not read the wall clock; simulated "
               "time is the cycle counter")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in mod.walk():
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name in _WALL_CLOCK:
                    yield self._hit(
                        mod, node,
                        f"wall-clock call {name}() in deterministic package "
                        f"{mod.package!r}; simulated time is the cycle counter",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if f"time.{alias.name}" in _WALL_CLOCK:
                        yield self._hit(
                            mod, node,
                            f"import of time.{alias.name} in deterministic "
                            f"package {mod.package!r}",
                        )


@register
class GlobalRandomRule(Rule):
    code = "DRC102"
    name = "global-random-module"
    summary = ("the stdlib random module carries hidden global state; use "
               "repro.sim.rng.make_rng(seed)")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in mod.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self._hit(
                            mod, node,
                            "import of the global-state stdlib random module; "
                            "all randomness flows through repro.sim.rng.make_rng",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self._hit(
                    mod, node,
                    "import from the global-state stdlib random module; "
                    "all randomness flows through repro.sim.rng.make_rng",
                )


@register
class NumpyGlobalRandomRule(Rule):
    code = "DRC103"
    name = "numpy-global-rng"
    summary = ("numpy.random.<fn> uses the hidden global generator; take a "
               "Generator from repro.sim.rng.make_rng(seed)")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in mod.walk():
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        attr = name[len(prefix):].split(".", 1)[0]
                        if attr not in _NUMPY_RNG_OK:
                            yield self._hit(
                                mod, node,
                                f"{name} touches numpy's global RNG state; "
                                f"use a seeded Generator from "
                                f"repro.sim.rng.make_rng",
                            )
                        break
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _NUMPY_RNG_OK:
                        yield self._hit(
                            mod, node,
                            f"import of numpy.random.{alias.name} (global RNG "
                            f"state); use a seeded Generator from "
                            f"repro.sim.rng.make_rng",
                        )


@register
class SetIterationRule(Rule):
    code = "DRC104"
    name = "unordered-set-iteration"
    summary = ("iterating a set makes order hash-dependent; sort first so "
               "runs are bit-identical across processes")

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in mod.walk():
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield self._hit(
                        mod, it,
                        "iteration over an unordered set; wrap in sorted() so "
                        "the visit order is deterministic",
                    )


@register
class DirectMetricRule(Rule):
    code = "DRC111"
    name = "metric-outside-registry"
    summary = ("metrics are created via MetricsRegistry.counter/gauge/"
               "histogram so handles dedupe and exporters see one catalog")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not mod.in_src or mod.package == "telemetry":
            return
        for node in mod.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in _METRIC_CLASSES:
                yield self._hit(
                    mod, node,
                    f"direct {name}(...) construction outside the telemetry "
                    f"package; get the handle from MetricsRegistry."
                    f"{name.removesuffix('Metric').lower()}(...)",
                )


@dataclass
class _LabelSite:
    mod: LintModule
    node: ast.Call
    labels: tuple[str, ...]


@register
class LabelConsistencyRule(Rule):
    code = "DRC112"
    name = "inconsistent-metric-labels"
    summary = ("every call site of one metric name must use the same label "
               "keys, or exported series fragment")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Violation]:
        sites: dict[str, list[_LabelSite]] = {}
        for mod in project.mods:
            if not mod.in_src:
                continue
            for node in mod.walk():
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _REGISTRY_FACTORIES
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    continue
                labels = tuple(sorted(
                    kw.arg for kw in node.keywords
                    if kw.arg is not None and kw.arg not in _FACTORY_OPTION_KEYWORDS
                ))
                if any(kw.arg is None for kw in node.keywords):
                    continue  # **labels: keys are dynamic, nothing to compare
                sites.setdefault(node.args[0].value, []).append(
                    _LabelSite(mod, node, labels)
                )
        for metric, metric_sites in sorted(sites.items()):
            metric_sites.sort(key=lambda s: (s.mod.relpath, s.node.lineno))
            baseline = metric_sites[0]
            for site in metric_sites[1:]:
                if site.labels != baseline.labels:
                    yield self._hit(
                        site.mod, site.node,
                        f"metric {metric!r} created with labels "
                        f"{list(site.labels)} here but {list(baseline.labels)} "
                        f"at {baseline.mod.relpath}:{baseline.node.lineno}; "
                        f"one metric name needs one label set",
                    )


def _hierarchy_classes(project: Project, root_name: str,
                       package: str) -> list["ClassInfo"]:
    """Exact transitive subclasses (roots included) of every in-src class
    named ``root_name`` in ``package``, resolved through the graph —
    restricted to in-src classes defined in that package (the public
    surface the registry contracts cover)."""
    graph = project.graph
    seen: dict[str, "ClassInfo"] = {}
    for root in graph.classes_named(root_name, package=package):
        for qname in graph.subclasses_of(root.qname):
            info = graph.classes[qname]
            if info.module.in_src and info.module.package == package:
                seen[qname] = info
    return sorted(seen.values(), key=lambda c: c.qname)


@register
class RegistryCoverageRule(Rule):
    code = "DRC121"
    name = "registry-coverage"
    summary = ("every public switch kernel is registered in "
               "repro.scenario.registry, and the registry references only "
               "kernels that exist")
    scope = "project"
    version = 2  # re-grounded on the exact class-hierarchy resolver

    @staticmethod
    def _switches_alias_refs(mod: LintModule) -> list[ast.Attribute]:
        """``<alias>.X`` references in scopes where ``<alias>`` is bound by a
        ``repro.switches`` import (and never rebound to anything else)."""
        refs: list[ast.Attribute] = []
        scopes: list[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef] = [
            mod.tree]
        scopes.extend(
            n for n in mod.walk()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            aliases: set[str] = set()
            body = scope.body
            for stmt in body:
                if (isinstance(stmt, ast.ImportFrom) and stmt.module == "repro"
                        and any(a.name == "switches" for a in stmt.names)):
                    aliases.update(a.asname or a.name for a in stmt.names
                                   if a.name == "switches")
                elif isinstance(stmt, ast.Import):
                    aliases.update(
                        a.asname for a in stmt.names
                        if a.name == "repro.switches" and a.asname
                    )
            if not aliases:
                continue
            rebound = {
                t.id
                for stmt in body
                for t in mod.walk(stmt)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
            }
            usable = aliases - rebound
            for stmt in body:
                for node in mod.walk(stmt):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id in usable):
                        refs.append(node)
        return refs

    def check_project(self, project: Project) -> Iterator[Violation]:
        mods = project.mods
        registry = next(
            (m for m in mods
             if m.in_src and m.package == "scenario"
             and m.path.name == "registry.py"),
            None,
        )
        if registry is None:
            return  # lint scope does not cover both sides of the contract
        yield from self._check_word_kernels(project, registry)
        kernels = {
            info.name: info
            for info in _hierarchy_classes(project, "SlottedSwitch", "switches")
            # the abstract root is the contract, not a registrable kernel
            if not info.name.startswith("_") and info.name != "SlottedSwitch"
        }
        alias_refs = self._switches_alias_refs(registry)
        referenced = {node.attr for node in alias_refs}
        for name in sorted(set(kernels) - referenced):
            info = kernels[name]
            yield self._hit(
                info.module, info.node,
                f"public switch kernel {name} is not reachable from any "
                f"repro.scenario.registry builder; register it (or prefix "
                f"the class with '_' if it is internal)",
            )
        switches_names = {
            info.name for info in project.graph.classes.values()
            if info.module.in_src and info.module.package == "switches"
        }
        switches_names.update(
            fn.name for fn in project.graph.functions.values()
            if fn.module.in_src and fn.module.package == "switches"
        )
        for name in sorted(referenced - switches_names):
            for node in alias_refs:
                if node.attr == name:
                    yield self._hit(
                        registry, node,
                        f"registry builder references repro.switches.{name}, "
                        f"which does not exist",
                    )
                    break

    def _check_word_kernels(
        self, project: Project, registry: LintModule
    ) -> Iterator[Violation]:
        """Every word-level kernel (``_WORD_KERNELS``) defined under
        ``repro.core`` must be reachable from the registry — referenced by
        name in ``registry.py`` itself or in a ``make_pipelined_switch``
        factory (the registry builders' front door for the pipelined
        kernel tiers)."""
        graph = project.graph
        core_classes = {
            info.name: info for info in graph.classes.values()
            if info.module.in_src and info.module.package == "core"
        }
        word_kernels = _WORD_KERNELS & set(core_classes)
        if not word_kernels:
            return
        reachable: set[str] = set()
        walks = [registry.walk()]
        walks.extend(
            fn.module.walk(fn.node) for fn in graph.functions.values()
            if fn.name == "make_pipelined_switch"
            and fn.module.in_src and fn.module.package == "core"
        )
        for nodes in walks:
            for node in nodes:
                if isinstance(node, ast.Name):
                    reachable.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reachable.add(node.attr)
        for name in sorted(word_kernels - reachable):
            info = core_classes[name]
            yield self._hit(
                info.module, info.node,
                f"word-level kernel {name} is not reachable from "
                f"repro.scenario.registry (directly or through "
                f"make_pipelined_switch); register an architecture for it",
            )


@register
class PolicyCoverageRule(Rule):
    code = "DRC122"
    name = "policy-coverage"
    summary = ("every admission policy implementation is registered in "
               "repro.policy.POLICIES (so the scenario registry and CLI can "
               "reach it), and every DROP_* cause constant appears in the "
               "DROP_CAUSES taxonomy map")
    scope = "project"
    version = 2  # subclass walk re-grounded on the class-hierarchy resolver

    @staticmethod
    def _dict_value_names(tree: ast.Module, target: str) -> list[ast.Name]:
        """Name nodes used as values of the module-level ``target = {...}``."""
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if (value is not None and isinstance(value, ast.Dict)
                    and any(isinstance(t, ast.Name) and t.id == target
                            for t in targets)):
                return [v for v in value.values if isinstance(v, ast.Name)]
        return []

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from self._check_policies(project)
        yield from self._check_drop_causes(project.mods)

    def _check_policies(self, project: Project) -> Iterator[Violation]:
        mods = project.mods
        admission = next(
            (m for m in mods if m.in_src and m.package == "policy"
             and m.path.name == "admission.py"),
            None,
        )
        if admission is None:
            return  # lint scope does not cover the policy package
        policy_classes = {
            info.name for info in project.graph.classes.values()
            if info.module.in_src and info.module.package == "policy"
        }
        impls = {
            info.name: info
            for info in _hierarchy_classes(project, "AdmissionPolicy", "policy")
        }
        if not impls:
            return
        public = {name for name in impls if not name.startswith("_")}
        # the protocol root itself is the contract, not an implementation
        public.discard("AdmissionPolicy")
        registered_refs = self._dict_value_names(admission.tree, "POLICIES")
        registered = {node.id for node in registered_refs}
        for name in sorted(public - registered):
            info = impls[name]
            yield self._hit(
                info.module, info.node,
                f"admission policy {name} is not registered in "
                f"repro.policy.POLICIES; the scenario registry and "
                f"--policy specs cannot reach it (or prefix the class "
                f"with '_' if it is internal)",
            )
        for node in registered_refs:
            if node.id not in policy_classes:
                yield self._hit(
                    admission, node,
                    f"POLICIES references {node.id}, which is not an "
                    f"AdmissionPolicy class in the policy package",
                )

    def _check_drop_causes(self, mods: list[LintModule]) -> Iterator[Violation]:
        events = next(
            (m for m in mods if m.in_src and m.package == "telemetry"
             and m.path.name == "events.py"),
            None,
        )
        if events is None:
            return
        causes: dict[str, ast.Assign] = {}
        taxonomy: set[str] | None = None
        for node in events.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "DROP_CAUSES" in names and isinstance(node.value, ast.Tuple):
                taxonomy = {e.id for e in node.value.elts
                            if isinstance(e, ast.Name)}
            else:
                for name in names:
                    if (name.startswith("DROP_") and name != "DROP"
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, str)):
                        causes[name] = node
        if taxonomy is None:
            yield self._hit(
                events, events.tree,
                "telemetry/events.py defines no DROP_CAUSES tuple; exporters "
                "and this lint treat it as the drop-taxonomy map of record",
            )
            return
        for name in sorted(set(causes) - taxonomy):
            yield self._hit(
                events, causes[name],
                f"drop cause {name} is missing from the DROP_CAUSES "
                f"taxonomy tuple; exporters iterate that map of record",
            )


@register
class ApiShapeRule(Rule):
    code = "DRC131"
    name = "switch-api-shape"
    summary = ("every switch model exposes the harness interface: the "
               "slotted hook trio, and run() on the word-level kernels")

    _SLOTTED_HOOKS = ("_admit", "_select_departures", "occupancy")
    scope = "project"
    version = 2  # method lookup re-grounded on resolved project MROs

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = project.graph
        for info in _hierarchy_classes(project, "SlottedSwitch", "switches"):
            if info.name == "SlottedSwitch":
                continue  # the abstract root declares the hooks
            methods = graph.methods_of(info.qname)
            missing = [h for h in self._SLOTTED_HOOKS if h not in methods]
            if missing:
                yield self._hit(
                    info.module, info.node,
                    f"slotted switch {info.name} does not implement "
                    f"{', '.join(missing)}; the harness drives every "
                    f"architecture through these hooks",
                )
        core_classes = {
            info.name: info for info in graph.classes.values()
            if info.module.in_src and info.module.package == "core"
        }
        for name in sorted(_WORD_KERNELS & set(core_classes)):
            info = core_classes[name]
            if "run" not in graph.methods_of(info.qname):
                yield self._hit(
                    info.module, info.node,
                    f"word-level kernel {name} does not define run(); the "
                    f"harness and scenario executors require it",
                )
