"""Lint driver: discovery, caching, parallel analysis, output formats.

``run_lint(paths)`` parses every ``.py`` file under the given paths into
:class:`~repro.drc.rules.LintModule`\\ s, runs the whole rule catalog
(module-scope rules file by file, project-scope rules over the whole
program via :class:`~repro.drc.rules.Project`), drops findings
suppressed with a ``# drc: disable=<code>`` comment on the offending
line, and returns the surviving violations sorted by path/line.

Engine v2 additions:

* **Whole-result cache** (``cache_dir=``): one content-addressed entry
  holding the whole result — see :mod:`repro.drc.cache`.  A re-run over
  unchanged content reconstructs the result without parsing anything
  (``files_analyzed == 0``); any content change is a cold run.  Output
  is bit-identical to a cold run in every case.
* **Parallel analysis** (``jobs=``): module-rule checking fans out over
  forked children; results merge in input order, so findings are
  identical at any job count.
* ``.drc-skip`` **sentinel**: a directory containing this file is
  pruned from recursive discovery (the seeded-defect corpus under
  ``tests/drc/corpus/`` lints deliberately-broken fixtures; the repo
  self-lint must not see them).  Passing such a directory *explicitly*
  still lints it — the sentinel only prunes recursion from above.

Suppression syntax (mirrors the familiar lint tools):

* ``x = foo()  # drc: disable=DRC104`` — silence one code on this line;
* ``# drc: disable=DRC101,DRC104`` — several codes, comma-separated;
* ``# drc: disable`` — every rule on this line (use sparingly; prefer
  naming the code so the exception is auditable).

Output formats: ``text`` (one ``path:line:col: CODE message`` per line),
``json`` (a list of violation objects plus a summary), and ``sarif``
(SARIF 2.1.0, for code-scanning upload from CI).
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.drc.cache import (
    LintCache,
    aggregate_sha,
    file_sha,
    load_cache,
    save_cache,
)
from repro.drc.rules import LintModule, Project, Violation, rule_catalog

# Imported for their @register side effects: these modules contribute the
# RNG-provenance and checkpoint-completeness rule families.
from repro.drc import checkpoint_rules as _checkpoint_rules  # noqa: F401
from repro.drc import rng_rules as _rng_rules  # noqa: F401

#: directories never descended into during file discovery
_SKIP_DIRS = frozenset({
    ".git", ".hg", "__pycache__", ".venv", "venv", "node_modules",
    ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist",
    ".drc-cache",
})

#: a directory containing this file is pruned from recursive discovery
SKIP_SENTINEL = ".drc-skip"

_SUPPRESS_RE = re.compile(r"#\s*drc:\s*disable(?:=(?P<codes>[A-Z0-9, ]+))?")


def discover_files(paths: Iterable[str | Path], root: Path | None = None) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files taken as-is), sorted."""
    root = Path.cwd() if root is None else root
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if not p.is_absolute():
            p = root / p
        if p.is_file():
            if p.suffix == ".py":
                out.add(p)
        elif p.is_dir():
            for f in p.rglob("*.py"):
                if any(part in _SKIP_DIRS for part in f.parts):
                    continue
                if _below_sentinel(f, p):
                    continue
                out.add(f)
    return sorted(out)


def _below_sentinel(f: Path, base: Path) -> bool:
    """True if a ``.drc-skip`` sentinel sits strictly between ``base``
    (exclusive) and ``f`` — explicitly passed directories still lint."""
    for d in f.parents:
        if d == base:
            return False
        if (d / SKIP_SENTINEL).is_file():
            return True
    return False


def parse_suppressions(source: str) -> dict[int, set[str] | None]:
    """line (1-based) -> suppressed codes; ``None`` means all codes."""
    out: dict[int, set[str] | None] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[i] = None
        else:
            out[i] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


def _suppressed(v: Violation, suppressions: dict[int, set[str] | None]) -> bool:
    codes = suppressions.get(v.line, ...)
    if codes is ...:
        return False
    return codes is None or v.code in codes  # type: ignore[union-attr]


class LintResult:
    """Violations that survived suppression, plus run accounting."""

    def __init__(self, violations: list[Violation], files_checked: int,
                 suppressed: int, parse_errors: list[Violation],
                 files_analyzed: int | None = None,
                 stats: dict[str, object] | None = None) -> None:
        self.violations = violations
        self.files_checked = files_checked
        self.suppressed = suppressed
        self.parse_errors = parse_errors
        self.files_analyzed = (files_checked if files_analyzed is None
                               else files_analyzed)
        self.stats: dict[str, object] = stats if stats is not None else {}

    @property
    def exit_code(self) -> int:
        return 1 if self.violations or self.parse_errors else 0

    def all_findings(self) -> list[Violation]:
        return sorted(self.parse_errors + self.violations,
                      key=lambda v: (v.path, v.line, v.col, v.code))


@dataclass
class _FileRecord:
    """One file's worth of analysis output."""

    relpath: str
    sha: str
    mod: LintModule | None = None
    suppressions: dict[int, set[str] | None] = field(default_factory=dict)
    findings: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    parse_error: Violation | None = None


def _analyze_file(path_str: str, rel: str,
                  run_rules: bool = True) -> _FileRecord:
    """Hash, parse, and (when ``run_rules``) run module-scope rules plus
    suppression filtering for one file."""
    path = Path(path_str)
    try:
        data = path.read_bytes()
    except OSError as exc:
        return _FileRecord(rel, "", parse_error=Violation(
            "DRC001", rel, 1, 1, f"file could not be read: {exc}"))
    sha = file_sha(data)
    try:
        source = data.decode("utf-8")
        mod = LintModule.parse(path, rel, source)
    except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return _FileRecord(rel, sha, parse_error=Violation(
            "DRC001", rel, line, 1, f"file could not be parsed: {exc}"))
    record = _FileRecord(rel, sha, mod=mod,
                         suppressions=parse_suppressions(source))
    if run_rules:
        for rule in rule_catalog():
            if rule.scope != "module":
                continue
            for v in rule.check_module(mod):
                if _suppressed(v, record.suppressions):
                    record.suppressed += 1
                else:
                    record.findings.append(v)
    return record


def _rules_worker(args: tuple[str, str]) -> tuple[str, list[Violation], int]:
    """Parallel worker: module-scope findings for one file.

    Returns only (relpath, findings, suppressed) — never the parsed
    tree.  Shipping ASTs back through pickle costs more than the parent
    re-parsing the source, so the parent parses its own copy while the
    workers run the rules.
    """
    record = _analyze_file(*args)
    return record.relpath, record.findings, record.suppressed


def _fork_rules(work: list[tuple[str, str]],
                jobs: int) -> list[tuple[int, str]] | None:
    """Fork ``jobs`` children, each running module rules over a strided
    slice of ``work`` and pickling results to a temp file.

    Returns (pid, result-path) pairs, or ``None`` where ``fork`` is
    unavailable.  Plain ``os.fork`` instead of a process pool on
    purpose: a pool's feeder/result threads contend with the parent's
    own CPU-bound parsing for the GIL (a convoy that more than doubles
    the wall time), while forked children share nothing with the parent
    but copy-on-write memory.
    """
    if not hasattr(os, "fork"):
        return None
    procs: list[tuple[int, str]] = []
    for i in range(jobs):
        chunk = work[i::jobs]
        if not chunk:
            continue
        fd, tmp = tempfile.mkstemp(prefix="drc-par-", suffix=".pkl")
        os.close(fd)
        pid = os.fork()
        if pid == 0:  # child
            code = 1
            try:
                out = [_rules_worker(w) for w in chunk]
                with open(tmp, "wb") as fh:
                    pickle.dump(out, fh, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        procs.append((pid, tmp))
    return procs


def _collect_fork_rules(
    procs: list[tuple[int, str]],
) -> dict[str, tuple[list[Violation], int]] | None:
    """Reap the children; ``None`` if any failed (caller re-runs
    serially)."""
    out: dict[str, tuple[list[Violation], int]] = {}
    failed = False
    for pid, tmp in procs:
        _, status = os.waitpid(pid, 0)
        try:
            if status != 0:
                failed = True
                continue
            with open(tmp, "rb") as fh:
                for rel, findings, n_sup in pickle.load(fh):
                    out[rel] = (findings, n_sup)
        except (OSError, pickle.UnpicklingError, EOFError):
            failed = True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return None if failed else out


def _relpath(f: Path, root: Path) -> str:
    try:
        return f.relative_to(root).as_posix()
    except ValueError:
        return f.as_posix()


def run_lint(paths: Iterable[str | Path], root: Path | None = None, *,
             jobs: int = 1, cache_dir: Path | None = None) -> LintResult:
    """Lint every Python file under ``paths``; see module docstring.

    ``jobs`` fans module-rule analysis out over forked children (findings
    are identical at any value).  ``cache_dir`` enables the whole-result
    cache; ``None`` (the default) analyzes everything from scratch.
    """
    t0 = time.perf_counter()
    root = Path.cwd() if root is None else root
    files = discover_files(paths, root=root)
    work = [(str(f), _relpath(f, root)) for f in files]

    if cache_dir is not None:
        shas: dict[str, str] = {}
        for f, (_, rel) in zip(files, work):
            try:
                shas[rel] = file_sha(f.read_bytes())
            except OSError:
                shas[rel] = ""
        cache = load_cache(cache_dir)
        if cache is not None and cache.agg == aggregate_sha(shas):
            return _from_cache(cache, len(files), t0, jobs)

    procs = _fork_rules(work, jobs) if jobs > 1 and len(work) > 1 else None
    if procs is not None:
        # children run module rules; the parent parses every tree
        # (project rules need them all) in the same wall time
        records = [_analyze_file(p, rel, run_rules=False) for p, rel in work]
        rule_out = _collect_fork_rules(procs)
        for (p, rel), record in zip(work, records):
            if rule_out is not None and rel in rule_out:
                record.findings, record.suppressed = rule_out[rel]
            else:  # a child died: redo this file in-process
                redone = _analyze_file(p, rel)
                record.findings = redone.findings
                record.suppressed = redone.suppressed
    else:
        records = [_analyze_file(p, rel) for p, rel in work]
    t_files = time.perf_counter()

    parse_errors: list[Violation] = []
    kept: list[Violation] = []
    n_suppressed = 0
    suppressions: dict[str, dict[int, set[str] | None]] = {}
    mods: list[LintModule] = []
    for record in records:
        suppressions[record.relpath] = record.suppressions
        if record.mod is not None:
            mods.append(record.mod)
        if record.parse_error is not None:
            parse_errors.append(record.parse_error)
        kept.extend(record.findings)
        n_suppressed += record.suppressed

    project = Project(mods)
    for rule in rule_catalog():
        if rule.scope != "project":
            continue
        for v in rule.check_project(project):
            if _suppressed(v, suppressions.get(v.path, {})):
                n_suppressed += 1
            else:
                kept.append(v)
    t_project = time.perf_counter()

    violations = sorted(kept, key=lambda v: (v.path, v.line, v.col, v.code))
    parse_errors.sort(key=lambda v: (v.path, v.line))
    if cache_dir is not None:
        # keyed by the bytes actually analyzed, so a file edited mid-run
        # can only cause a miss, never serve findings for other content
        save_cache(cache_dir, LintCache(
            agg=aggregate_sha({r.relpath: r.sha for r in records}),
            findings=violations, parse_errors=parse_errors,
            suppressed=n_suppressed,
        ))
    stats: dict[str, object] = {
        "cache": "off" if cache_dir is None else "cold",
        "jobs": jobs,
        "files_checked": len(files),
        "files_analyzed": len(files),
        "elapsed": round(time.perf_counter() - t0, 6),
        "elapsed_files": round(t_files - t0, 6),
        "elapsed_project": round(t_project - t_files, 6),
    }
    return LintResult(violations, files_checked=len(files),
                      suppressed=n_suppressed, parse_errors=parse_errors,
                      stats=stats)


def _from_cache(cache: LintCache, n_files: int, t0: float,
                jobs: int) -> LintResult:
    """Cache hit: rebuild the result without parsing anything."""
    elapsed = round(time.perf_counter() - t0, 6)
    stats: dict[str, object] = {
        "cache": "hit",
        "jobs": jobs,
        "files_checked": n_files,
        "files_analyzed": 0,
        "elapsed": elapsed,
        "elapsed_files": elapsed,
        "elapsed_project": 0.0,
    }
    return LintResult(cache.findings, files_checked=n_files,
                      suppressed=cache.suppressed,
                      parse_errors=cache.parse_errors,
                      files_analyzed=0, stats=stats)


# -- output formats ---------------------------------------------------------

def format_text(result: LintResult) -> str:
    lines = [v.render() for v in result.all_findings()]
    n = len(result.all_findings())
    lines.append(
        f"{'No' if n == 0 else n} violation{'s' if n != 1 else ''} "
        f"in {result.files_checked} file{'s' if result.files_checked != 1 else ''}"
        + (f" ({result.suppressed} suppressed)" if result.suppressed else "")
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    return json.dumps(
        {
            "violations": [asdict(v) for v in result.all_findings()],
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
        },
        indent=2,
    )


def format_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 — the schema GitHub code scanning ingests."""
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        }
        for rule in rule_catalog()
    ]
    results = [
        {
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": v.path},
                        "region": {"startLine": v.line, "startColumn": v.col},
                    }
                }
            ],
        }
        for v in result.all_findings()
    ]
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-drc",
                        "informationUri": "https://example.invalid/repro-drc",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


FORMATTERS = {"text": format_text, "json": format_json, "sarif": format_sarif}
