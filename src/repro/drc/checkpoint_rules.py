"""Checkpoint-completeness rules (DRC151-153).

PR 7's checkpoint subsystem guarantees bit-identical resume — but only
for state its codecs actually serialize.  The failure mode is silent:
add a mutable attribute to a kernel, forget the codec, and snapshots
still save and restore cleanly while resumed runs diverge.  These rules
turn that into a lint-time finding by comparing two statically computed
sets per supported kernel:

* the **mutable set** — attributes of the kernel object written or
  mutated anywhere on the ``run``/``drain`` call closure, computed by
  the interprocedural dataflow engine (so a helper in another module
  writing ``switch._free`` across the module boundary counts, as do
  mutations through local aliases and bound methods);
* the **serialized set** — attributes the kernel's snapshot codec (and
  the helpers it hands the switch to, plus ``snapshot_switch`` itself)
  reads off the object.

**DRC151** fires for every mutable attribute that is neither serialized
nor exempted.  Attributes assigned only in ``__init__`` are re-derived
by the restore constructor and never enter the mutable set.  Exemption
grammar (for state that is genuinely re-derived on restore, e.g.
telemetry metric handles re-resolved by ``attach_telemetry``):

* ``self._m_occ = m.gauge(...)  # drc: checkpoint-exempt`` — a marker on
  any ``<attr> = ...`` assignment line in the kernel's defining module
  exempts that attribute;
* ``# drc: checkpoint-exempt: attr_a, attr_b`` — named form, anywhere in
  the defining module;
* a marker directly on a flagged mutation site also exempts it.

**DRC152** is the inverse direction: a codec read of an attribute the
kernel class never defines (the codec outlived a field rename) fails at
snapshot time on every run — flag it statically.

**DRC153** closes the dispatch hole: ``_kernel_of`` matches kernels by
exact type (``type(switch) is C``), so a *subclass* of a supported
kernel silently falls outside the support matrix; defining one without
its own codec is flagged at the class definition.

The support matrix itself is parsed from the checkpoint package:
``_kernel_of``'s ``type(x) is C`` chain names the kernel classes, and
``snapshot_switch``'s ``kernel == "..."`` chain maps each to its codec
function, so the rules track the real dispatch — no hard-coded class
lists.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass

from repro.drc.dataflow import DataflowEngine, Site, param_names
from repro.drc.graph import FunctionInfo, ProjectGraph, imports_in, module_qname
from repro.drc.rules import LintModule, Project, Rule, Violation, register

_EXEMPT_RE = re.compile(
    r"#\s*drc:\s*checkpoint-exempt(?::\s*(?P<attrs>[A-Za-z0-9_, ]+))?"
)
_ASSIGN_RE = re.compile(r"(?:self\.)?([A-Za-z_][A-Za-z0-9_]*)\s*=[^=]")


def checkpoint_exempt(mod: LintModule) -> tuple[set[int], set[str]]:
    """(marker line numbers, attribute names exempted module-wide)."""
    lines: set[int] = set()
    attrs: set[str] = set()
    for lineno, text in enumerate(mod.source.splitlines(), start=1):
        m = _EXEMPT_RE.search(text)
        if m is None:
            continue
        lines.add(lineno)
        named = m.group("attrs")
        if named:
            attrs.update(a.strip() for a in named.split(",") if a.strip())
        else:
            code = text[: m.start()]
            am = _ASSIGN_RE.search(code)
            if am:
                attrs.add(am.group(1))
    return lines, attrs


@dataclass
class _KernelCodec:
    cls_qname: str
    kernel: str
    codec: FunctionInfo


class _CheckpointAnalysis:
    """Parses the support matrix and computes all three finding lists."""

    def __init__(self, project: Project) -> None:
        self.graph: ProjectGraph = project.graph
        self.engine = DataflowEngine(self.graph)
        self.findings: dict[str, list[Violation]] = {
            "DRC151": [], "DRC152": [], "DRC153": [],
        }
        self._exempt_cache: dict[str, tuple[set[int], set[str]]] = {}
        kernel_of = self._checkpoint_fn("_kernel_of")
        snapshot = self._checkpoint_fn("snapshot_switch")
        if kernel_of is None or snapshot is None:
            return  # lint scope does not include the checkpoint package
        kernels = self._parse_kernel_of(kernel_of)
        codecs = self._parse_snapshot(snapshot, set(kernels.values()))
        matrix = [
            _KernelCodec(cls, kernel, codecs[kernel])
            for cls, kernel in sorted(kernels.items())
            if kernel in codecs and cls in self.graph.classes
        ]
        if not matrix:
            return
        shared_reads = self._snapshot_reads(snapshot)
        for entry in matrix:
            self._check_kernel(entry, shared_reads)
        self._check_subclasses(matrix)

    # -- support-matrix parsing -------------------------------------------

    def _checkpoint_fn(self, name: str) -> FunctionInfo | None:
        for fn in sorted(self.graph.functions.values(), key=lambda f: f.qname):
            if (fn.name == name and fn.owner is None and fn.module.in_src
                    and fn.module.package == "checkpoint"):
                return fn
        return None

    def _parse_kernel_of(self, fn: FunctionInfo) -> dict[str, str]:
        """class qname -> kernel string, from ``type(x) is C`` tests."""
        params = param_names(fn)
        if not params:
            return {}
        param = params[0]
        nodes = fn.module.walk(fn.node)
        local_env = imports_in(
            [s for s in nodes if isinstance(s, ast.stmt)],
            module_qname(fn.module.relpath), False,
        )
        out: dict[str, str] = {}
        for node in nodes:
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (isinstance(test, ast.Compare)
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], (ast.Is, ast.Eq))
                    and isinstance(test.left, ast.Call)
                    and isinstance(test.left.func, ast.Name)
                    and test.left.func.id == "type"
                    and test.left.args
                    and isinstance(test.left.args[0], ast.Name)
                    and test.left.args[0].id == param):
                continue
            cls_qname = self.graph.resolve_node(
                fn.module, test.comparators[0], local_env)
            if cls_qname is None:
                continue
            kernel = next(
                (s.value.value for s in node.body
                 if isinstance(s, ast.Return)
                 and isinstance(s.value, ast.Constant)
                 and isinstance(s.value.value, str)),
                None,
            )
            if kernel is not None:
                out[cls_qname] = kernel
        return out

    def _parse_snapshot(self, fn: FunctionInfo,
                        kernels: set[str]) -> dict[str, FunctionInfo]:
        """kernel string -> codec FunctionInfo, from the if/elif chain."""
        out: dict[str, FunctionInfo] = {}

        def codec_in(stmts: list[ast.stmt]) -> FunctionInfo | None:
            for stmt in stmts:
                for node in fn.module.walk(stmt):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)):
                        qname = self.graph.resolve_node(fn.module, node.func)
                        callee = self.graph.functions.get(qname or "")
                        if (callee is not None
                                and callee.module.package == "checkpoint"):
                            return callee
            return None

        def kernel_str(test: ast.expr) -> str | None:
            if (isinstance(test, ast.Compare)
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Eq)
                    and isinstance(test.comparators[0], ast.Constant)
                    and isinstance(test.comparators[0].value, str)):
                return str(test.comparators[0].value)
            return None

        for node in fn.node.body:
            chain = node
            matched: set[str] = set()
            while isinstance(chain, ast.If):
                k = kernel_str(chain.test)
                if k is None:
                    break
                codec = codec_in(chain.body)
                if codec is not None:
                    out[k] = codec
                    matched.add(k)
                orelse = chain.orelse
                if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                    chain = orelse[0]
                    continue
                if orelse and matched:
                    codec = codec_in(orelse)
                    if codec is not None:
                        for k in sorted(kernels - matched):
                            out.setdefault(k, codec)
                break
        return out

    # -- per-kernel checks --------------------------------------------------

    def _exempt(self, mod: LintModule) -> tuple[set[int], set[str]]:
        cached = self._exempt_cache.get(mod.relpath)
        if cached is None:
            cached = checkpoint_exempt(mod)
            self._exempt_cache[mod.relpath] = cached
        return cached

    def _snapshot_reads(self, snapshot: FunctionInfo) -> set[str]:
        """Attrs snapshot_switch itself reads (intraprocedural only, so
        per-kernel codec reads do not bleed across kernels)."""
        params = param_names(snapshot)
        if not params:
            return set()
        summary = self.engine.function_summary(snapshot, follow=False)
        eff = summary.get(params[0])
        return eff.accessed_attrs() if eff is not None else set()

    def _check_kernel(self, entry: _KernelCodec,
                      shared_reads: set[str]) -> None:
        cls = self.graph.classes[entry.cls_qname]
        methods = self.graph.methods_of(entry.cls_qname)
        codec_params = param_names(entry.codec)
        serialized = set(shared_reads)
        if codec_params:
            summary = self.engine.function_summary(entry.codec)
            eff = summary.get(codec_params[0])
            if eff is not None:
                serialized |= eff.accessed_attrs()
                self._check_stale(entry, cls, eff.reads, eff.mutates)
        effects = self.engine.object_effects(entry.cls_qname, ["run", "drain"])
        # Exemptions may sit next to the assignment in any module of the
        # kernel's MRO — mixin-owned attrs (telemetry handles) are
        # assigned in the mixin's module, not the kernel's.
        module_exempt: set[str] = set()
        for info in self.graph.mro(entry.cls_qname):
            module_exempt |= self._exempt(info.module)[1]
        for attr, sites in sorted(effects.mutable_attrs().items()):
            if not attr or attr.startswith("__") or attr in methods:
                continue
            if attr in serialized or attr in module_exempt:
                continue
            if any(self._site_exempt(site) for site in sites):
                continue
            mod, node = sites[0]
            self.findings["DRC151"].append(Violation(
                "DRC151", mod.relpath, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                f"mutable attribute {attr!r} of kernel {cls.name} is "
                f"written on the run/drain path but never read by its "
                f"checkpoint codec {entry.codec.name}; resumed runs will "
                f"silently diverge — serialize it, re-derive it on "
                f"restore, or mark an assignment with "
                f"'# drc: checkpoint-exempt'",
            ))

    def _site_exempt(self, site: Site) -> bool:
        lines, _ = self._exempt(site[0])
        return getattr(site[1], "lineno", 0) in lines

    def _check_stale(self, entry: _KernelCodec, cls: "object",
                     reads: dict[str, list[Site]],
                     mutates: dict[str, list[Site]]) -> None:
        from repro.drc.graph import ClassInfo

        assert isinstance(cls, ClassInfo)
        universe = self._attr_universe(cls)
        seen: dict[str, list[Site]] = {}
        for bucket in (reads, mutates):
            for attr, sites in bucket.items():
                seen.setdefault(attr, []).extend(sites)
        for attr, sites in sorted(seen.items()):
            if not attr or attr in universe:
                continue
            sites.sort(key=lambda s: (s[0].relpath,
                                      getattr(s[1], "lineno", 0)))
            mod, node = sites[0]
            self.findings["DRC152"].append(Violation(
                "DRC152", mod.relpath, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                f"checkpoint codec {entry.codec.name} reads attribute "
                f"{attr!r}, which kernel {cls.name} never defines; the "
                f"codec has gone stale and snapshots of this kernel "
                f"raise AttributeError",
            ))

    def _attr_universe(self, cls: "object") -> set[str]:
        """Every attribute name the class can carry: self-assignments in
        any method along the MRO, class-level names, and methods."""
        from repro.drc.graph import ClassInfo

        assert isinstance(cls, ClassInfo)
        out: set[str] = set()
        for info in self.graph.mro(cls.qname):
            for stmt in info.node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.add(stmt.name)
                    args = param_names(self.graph.functions[
                        f"{info.qname}.{stmt.name}"])
                    selfname = args[0] if args else "self"
                    for node in info.module.walk(stmt):
                        if (isinstance(node, ast.Attribute)
                                and isinstance(node.ctx, (ast.Store,
                                                          ast.Del))
                                and isinstance(node.value, ast.Name)
                                and node.value.id == selfname):
                            out.add(node.attr)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            out.add(target.id)
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name):
                        out.add(stmt.target.id)
        return out

    def _check_subclasses(self, matrix: list[_KernelCodec]) -> None:
        supported = {entry.cls_qname for entry in matrix}
        for entry in matrix:
            cls = self.graph.classes[entry.cls_qname]
            for sub_qname in sorted(
                    self.graph.subclasses_of(entry.cls_qname, strict=True)):
                if sub_qname in supported:
                    continue
                sub = self.graph.classes[sub_qname]
                if not sub.module.in_src:
                    continue
                self.findings["DRC153"].append(Violation(
                    "DRC153", sub.module.relpath, sub.node.lineno,
                    sub.node.col_offset + 1,
                    f"{sub.name} subclasses checkpoint-supported kernel "
                    f"{cls.name}, but checkpoint dispatch is exact-type "
                    f"(type(x) is {cls.name}) so instances are refused at "
                    f"snapshot time; add a codec for it or do not derive "
                    f"from a checkpointable kernel",
                ))


def _analysis(project: Project) -> _CheckpointAnalysis:
    cached = getattr(project, "_ckpt_analysis", None)
    if isinstance(cached, _CheckpointAnalysis):
        return cached
    analysis = _CheckpointAnalysis(project)
    project._ckpt_analysis = analysis  # type: ignore[attr-defined]
    return analysis


@register
class CheckpointCompletenessRule(Rule):
    code = "DRC151"
    name = "checkpoint-unserialized-state"
    summary = ("every mutable kernel attribute on the run/drain path must "
               "be serialized by its checkpoint codec, re-derived on "
               "restore, or exempted with '# drc: checkpoint-exempt'")
    scope = "project"
    version = 1

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from _analysis(project).findings["DRC151"]


@register
class StaleCodecFieldRule(Rule):
    code = "DRC152"
    name = "checkpoint-stale-codec-field"
    summary = ("checkpoint codecs must only read attributes their kernel "
               "class defines; stale fields fail at snapshot time")
    scope = "project"
    version = 1

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from _analysis(project).findings["DRC152"]


@register
class UncheckpointableSubclassRule(Rule):
    code = "DRC153"
    name = "checkpoint-subclass-unsupported"
    summary = ("checkpoint dispatch is exact-type; subclasses of supported "
               "kernels need their own codec")
    scope = "project"
    version = 1

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from _analysis(project).findings["DRC153"]


__all__ = [
    "CheckpointCompletenessRule",
    "StaleCodecFieldRule",
    "UncheckpointableSubclassRule",
    "checkpoint_exempt",
]
