"""Design-rule checker for the pipelined-memory reproduction.

Two halves, one catalog of stable codes:

* **static** (``DRC1xx``) — AST lint rules over the repository source
  (:mod:`repro.drc.rules`, driven by :func:`repro.drc.run_lint` and the
  ``repro lint`` CLI);
* **runtime** (``DRC2xx``) — the opt-in per-cycle invariant sanitizer
  threaded through the kernels (:mod:`repro.drc.sanitizer`, enabled with
  ``--sanitize``).

See ``ARCHITECTURE.md`` §13 for the full rule catalog and the mapping of
sanitizer invariants to paper sections.
"""

from repro.drc.cache import ENGINE_VERSION, rules_fingerprint
from repro.drc.dataflow import DataflowEngine, ParamEffects
from repro.drc.graph import ProjectGraph, module_qname
from repro.drc.linter import (
    FORMATTERS,
    SKIP_SENTINEL,
    LintResult,
    discover_files,
    format_json,
    format_sarif,
    format_text,
    parse_suppressions,
    run_lint,
)
from repro.drc.rules import (
    RULES,
    LintModule,
    Project,
    Rule,
    Violation,
    rule_catalog,
)
from repro.drc.sanitizer import (
    ADDRESS_MISMATCH,
    BANK_CONFLICT,
    CONSERVATION,
    DOUBLE_INITIATION,
    INVARIANTS,
    NULL_SANITIZER,
    NullSanitizer,
    Sanitizer,
    SanitizerError,
)

__all__ = [
    "ADDRESS_MISMATCH",
    "BANK_CONFLICT",
    "CONSERVATION",
    "DOUBLE_INITIATION",
    "DataflowEngine",
    "ENGINE_VERSION",
    "FORMATTERS",
    "INVARIANTS",
    "LintModule",
    "LintResult",
    "NULL_SANITIZER",
    "NullSanitizer",
    "ParamEffects",
    "Project",
    "ProjectGraph",
    "RULES",
    "Rule",
    "SKIP_SENTINEL",
    "Sanitizer",
    "SanitizerError",
    "Violation",
    "discover_files",
    "format_json",
    "format_sarif",
    "format_text",
    "module_qname",
    "parse_suppressions",
    "rule_catalog",
    "rules_fingerprint",
    "run_lint",
]
