"""Content-addressed whole-result lint cache.

The cache makes an unchanged re-lint cheap without ever changing its
output.  It holds one entry, keyed by content, never by mtime:

* the **rules fingerprint** — sha256 over the engine version and every
  registered rule's ``(code, version)`` pair.  Editing a rule bumps its
  ``version``, which invalidates the entry; a stale rule can never serve
  old findings.
* the **aggregate sha** over the sorted ``(relpath, file sha)`` list, so
  an edited, added or removed file changes the key.

Its value is the whole result: the post-suppression findings, the parse
errors and the suppressed count.  When both keys match, the result is
served without parsing a single file (``files_analyzed == 0``); anything
else is a cold run that rewrites the entry.

The cache lives in ``<root>/.drc-cache/cache.json`` (configurable) and
is an opportunistic artifact: corruption, an unexpected shape or version
skew degrades to a cold run, never to an error or to wrong output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.drc.rules import Violation, rule_catalog

#: bump when the engine's analysis semantics change in a way individual
#: rule versions do not capture (dataflow, graph resolution, suppression
#: grammar, cache schema).
ENGINE_VERSION = 4  # 4: deep nesting is a DRC001 finding

_CACHE_NAME = "cache.json"

#: field types of one serialised Violation row
_ROW_TYPES = (str, str, int, int, str)


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


def _load_violation(row: object) -> Violation:
    if (not isinstance(row, list) or len(row) != len(_ROW_TYPES)
            or not all(isinstance(x, t) for x, t in zip(row, _ROW_TYPES))):
        raise ValueError(f"malformed cached finding {row!r}")
    return Violation(*row)


@dataclass
class LintCache:
    """One whole lint result and the content it was computed from."""

    agg: str
    findings: list[Violation]
    parse_errors: list[Violation]
    suppressed: int


def load_cache(cache_dir: Path) -> LintCache | None:
    """The cached result, or None on a miss, corruption, a shape this
    loader does not expect, or fingerprint skew."""
    try:
        raw = json.loads((cache_dir / _CACHE_NAME).read_bytes())
        if raw["fingerprint"] != rules_fingerprint():
            return None
        cache = LintCache(
            agg=raw["agg"],
            findings=[_load_violation(r) for r in raw["findings"]],
            parse_errors=[_load_violation(r) for r in raw["parse_errors"]],
            suppressed=raw["suppressed"],
        )
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    if not isinstance(cache.agg, str) or type(cache.suppressed) is not int:
        return None
    return cache


def save_cache(cache_dir: Path, cache: LintCache) -> None:
    doc = {
        "fingerprint": rules_fingerprint(),
        "agg": cache.agg,
        "findings": [_dump_violation(v) for v in cache.findings],
        "parse_errors": [_dump_violation(v) for v in cache.parse_errors],
        "suppressed": cache.suppressed,
    }
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / f".{_CACHE_NAME}.tmp"
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        tmp.replace(cache_dir / _CACHE_NAME)
    except OSError:
        pass  # the cache is an optimisation, never a requirement


__all__ = [
    "ENGINE_VERSION",
    "LintCache",
    "aggregate_sha",
    "file_sha",
    "load_cache",
    "rules_fingerprint",
    "save_cache",
]
