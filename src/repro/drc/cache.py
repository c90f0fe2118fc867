"""Content-addressed incremental lint cache.

The cache makes warm ``repro lint`` runs cheap without ever changing
their output.  Everything is keyed by content, never by mtime:

* the **rules fingerprint** — sha256 over the engine version and every
  registered rule's ``(code, version)`` pair.  Editing a rule bumps its
  ``version``, which invalidates the whole cache; a stale rule can never
  serve old findings.
* a **per-file entry** — the file's sha256, its post-suppression
  module-scope findings, suppressed count, parse error (if any), and the
  qnames it imports.  A file whose hash matches serves its module-scope
  findings straight from the entry.
* a **project blob** — keyed by the aggregate sha over the sorted
  ``(relpath, sha)`` list.  Project-scope rules (registry coverage, RNG
  provenance, checkpoint completeness) see the whole
  program, so any content change re-runs them; when the aggregate
  matches, the entire result is reconstructed without parsing a single
  file (``files_analyzed == 0``).

On a partial hit the dirty set is the changed/added files plus the
transitive *reverse-import closure* computed from the cached import
lists — computable before any parsing, so unchanged files outside the
closure skip module-rule analysis entirely.

The cache lives in ``<root>/.drc-cache/cache.json`` (configurable) and
is an opportunistic artifact: corruption or version skew degrades to a
cold run, never to wrong output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.drc.graph import module_qname
from repro.drc.rules import Violation, rule_catalog

#: bump when the engine's analysis semantics change in a way individual
#: rule versions do not capture (dataflow, graph resolution, suppression
#: grammar, cache schema).
ENGINE_VERSION = 2

_CACHE_NAME = "cache.json"


def rules_fingerprint() -> str:
    parts = [f"engine={ENGINE_VERSION}"]
    parts.extend(f"{r.code}:{r.version}" for r in rule_catalog())
    return hashlib.sha256("|".join(sorted(parts)).encode()).hexdigest()


def file_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def aggregate_sha(shas: dict[str, str]) -> str:
    h = hashlib.sha256()
    for rel in sorted(shas):
        h.update(f"{rel}\x00{shas[rel]}\x00".encode())
    return h.hexdigest()


def _dump_violation(v: Violation) -> list[object]:
    return [v.code, v.path, v.line, v.col, v.message]


def _load_violation(row: list[object]) -> Violation:
    code, path, line, col, message = row
    return Violation(str(code), str(path), int(line), int(col), str(message))


@dataclass
class FileEntry:
    sha: str
    findings: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    parse_error: Violation | None = None
    imports: list[str] = field(default_factory=list)


@dataclass
class LintCache:
    fingerprint: str
    files: dict[str, FileEntry] = field(default_factory=dict)
    project_agg: str = ""
    project_findings: list[Violation] = field(default_factory=list)
    project_suppressed: int = 0


def load_cache(cache_dir: Path) -> LintCache | None:
    """The cached state, or None on any miss/corruption/fingerprint skew."""
    try:
        raw = json.loads((cache_dir / _CACHE_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        if raw["fingerprint"] != rules_fingerprint():
            return None
        files: dict[str, FileEntry] = {}
        for rel, entry in raw["files"].items():
            files[rel] = FileEntry(
                sha=entry["sha"],
                findings=[_load_violation(r) for r in entry["findings"]],
                suppressed=int(entry["suppressed"]),
                parse_error=(_load_violation(entry["parse_error"])
                             if entry["parse_error"] else None),
                imports=[str(i) for i in entry["imports"]],
            )
        return LintCache(
            fingerprint=raw["fingerprint"],
            files=files,
            project_agg=str(raw["project"]["agg"]),
            project_findings=[_load_violation(r)
                              for r in raw["project"]["findings"]],
            project_suppressed=int(raw["project"]["suppressed"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


def save_cache(cache_dir: Path, cache: LintCache) -> None:
    doc = {
        "fingerprint": cache.fingerprint,
        "files": {
            rel: {
                "sha": e.sha,
                "findings": [_dump_violation(v) for v in e.findings],
                "suppressed": e.suppressed,
                "parse_error": (_dump_violation(e.parse_error)
                                if e.parse_error else None),
                "imports": e.imports,
            }
            for rel, e in sorted(cache.files.items())
        },
        "project": {
            "agg": cache.project_agg,
            "findings": [_dump_violation(v) for v in cache.project_findings],
            "suppressed": cache.project_suppressed,
        },
    }
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / f".{_CACHE_NAME}.tmp"
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        tmp.replace(cache_dir / _CACHE_NAME)
    except OSError:
        pass  # the cache is an optimisation, never a requirement


def dirty_set(cache: LintCache, shas: dict[str, str]) -> set[str]:
    """Relpaths needing module-rule re-analysis: content-changed or new
    files plus their transitive reverse-import closure, computed from
    cached import lists (no parsing required)."""
    changed = {rel for rel, sha in shas.items()
               if cache.files.get(rel) is None or cache.files[rel].sha != sha}
    removed = set(cache.files) - set(shas)
    # qname -> relpath for every module we knew about (cached view: a
    # renamed file changes both sides, and both land in the dirty set).
    owners: dict[str, str] = {}
    for rel in set(shas) | set(cache.files):
        owners[module_qname(rel)] = rel
    # importer relpath -> imported relpaths, by longest-prefix match of
    # each cached import target against known module qnames.
    fwd: dict[str, set[str]] = {}
    for rel, entry in cache.files.items():
        deps: set[str] = set()
        for target in entry.imports:
            parts = target.split(".")
            for i in range(len(parts), 0, -1):
                owner = owners.get(".".join(parts[:i]))
                if owner is not None:
                    deps.add(owner)
                    break
        fwd[rel] = deps
    rev: dict[str, set[str]] = {}
    for rel, deps in fwd.items():
        for dep in deps:
            rev.setdefault(dep, set()).add(rel)
    queue = list(changed | removed)
    dirty = set(queue)
    while queue:
        rel = queue.pop()
        for importer in rev.get(rel, ()):
            if importer not in dirty:
                dirty.add(importer)
                queue.append(importer)
    return {rel for rel in dirty if rel in shas}


__all__ = [
    "ENGINE_VERSION",
    "FileEntry",
    "LintCache",
    "aggregate_sha",
    "dirty_set",
    "file_sha",
    "load_cache",
    "rules_fingerprint",
    "save_cache",
]
