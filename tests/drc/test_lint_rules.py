"""Per-rule tests for the static half of repro.drc.

Each rule gets a minimal synthetic tree under ``tmp_path`` that triggers
it, plus a negative showing the sanctioned alternative stays clean.  The
trees mimic the real layout (``src/repro/<package>/...``) because the
determinism rules are scoped to the simulation packages.
"""

import json
from pathlib import Path

import pytest

from repro.drc import (
    LintResult,
    Violation,
    format_json,
    format_sarif,
    format_text,
    parse_suppressions,
    rule_catalog,
    run_lint,
)


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    return tmp_path


def _codes(tmp_path: Path, files: dict[str, str]) -> list[str]:
    root = _tree(tmp_path, files)
    return [v.code for v in run_lint(["src"], root=root).all_findings()]


# -- determinism rules (DRC101-DRC104) ----------------------------------------

def test_drc101_wall_clock_in_sim_package(tmp_path):
    codes = _codes(tmp_path, {
        "src/repro/sim/clocky.py": "import time\nstart = time.time()\n",
    })
    assert codes == ["DRC101"]


def test_drc101_from_import_and_out_of_scope(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/sim/clocky.py": "from time import monotonic\n",
        "src/repro/analysis/free.py": "import time\nt = time.time()\n",
    })
    result = run_lint(["src"], root=root)
    assert [v.code for v in result.violations] == ["DRC101"]
    assert result.violations[0].path == "src/repro/sim/clocky.py"


def test_drc102_global_random_module(tmp_path):
    codes = _codes(tmp_path, {
        "src/repro/core/dicey.py": "import random\nx = random.random()\n",
        "src/repro/switches/dicey2.py": "from random import randint\n",
    })
    assert codes == ["DRC102", "DRC102"]


def test_drc103_numpy_global_rng(tmp_path):
    codes = _codes(tmp_path, {
        "src/repro/network/noisy.py": (
            "import numpy as np\n"
            "np.random.seed(7)\n"          # global state: flagged
            "rng = np.random.default_rng(7)\n"  # sanctioned: clean
        ),
    })
    assert codes == ["DRC103"]


def test_drc104_set_iteration(tmp_path):
    codes = _codes(tmp_path, {
        "src/repro/fabric/loopy.py": (
            "for x in {1, 2, 3}:\n    pass\n"
            "ys = [y for y in set([4, 5])]\n"
            "zs = [z for z in sorted({6, 7})]\n"  # sorted: clean
        ),
    })
    assert codes == ["DRC104", "DRC104"]


def test_determinism_rules_skip_test_code(tmp_path):
    root = _tree(tmp_path, {
        "tests/core/test_x.py": "import random\nimport time\nt = time.time()\n",
    })
    assert run_lint(["tests"], root=root).violations == []


# -- telemetry discipline (DRC111-DRC112) -------------------------------------

def test_drc111_direct_metric_construction(tmp_path):
    codes = _codes(tmp_path, {
        "src/repro/core/metr.py": (
            "from repro.telemetry.metrics import CounterMetric\n"
            "c = CounterMetric('repro_x_total')\n"
        ),
        # inside the telemetry package the classes are fair game
        "src/repro/telemetry/impl.py": (
            "c = CounterMetric('repro_y_total')\n"
        ),
    })
    assert codes == ["DRC111"]


def test_drc112_inconsistent_label_sets(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/core/a.py": "c = reg.counter('repro_hits_total', link=0)\n",
        "src/repro/core/b.py": "c = reg.counter('repro_hits_total', port=1)\n",
    })
    result = run_lint(["src"], root=root)
    assert [v.code for v in result.violations] == ["DRC112"]
    assert "repro_hits_total" in result.violations[0].message


def test_drc112_same_labels_everywhere_clean(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/core/a.py": "c = reg.counter('repro_hits_total', link=0)\n",
        "src/repro/core/b.py": "c = reg.counter('repro_hits_total', link=9)\n",
        "src/repro/core/c.py": (
            "h = reg.histogram('repro_lat', edges=[1, 2], link=3)\n"  # edges: option
        ),
    })
    assert run_lint(["src"], root=root).violations == []


# -- registry coverage and API shape (DRC121, DRC131) -------------------------

_SLOTTED_OK = (
    "class SlottedSwitch:\n"
    "    def _admit(self): pass\n"
    "    def _select_departures(self): pass\n"
    "    def occupancy(self): pass\n"
)


def test_drc121_unregistered_kernel(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/switches/models.py": (
            _SLOTTED_OK + "class Orphan(SlottedSwitch):\n    pass\n"
        ),
        "src/repro/scenario/registry.py": "REGISTRY = {}\n",
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC121" and "Orphan" in v.message for v in result.violations
    )


def test_drc121_registry_references_missing_kernel(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/switches/models.py": (
            _SLOTTED_OK + "class _Internal(SlottedSwitch):\n    pass\n"
        ),
        "src/repro/scenario/registry.py": (
            "from repro import switches as sw\n"
            "def build(p):\n"
            "    return sw.GhostKernel(p)\n"
        ),
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC121" and "GhostKernel" in v.message
        for v in result.violations
    )
    # the underscore-prefixed class is internal: no unregistered-kernel finding
    assert not any("_Internal" in v.message for v in result.violations)


def test_drc121_word_kernel_not_reachable(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/core/batchpath.py": (
            "class BatchPipelinedSwitch:\n"
            "    def run(self): pass\n"
        ),
        "src/repro/scenario/registry.py": "REGISTRY = {}\n",
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC121" and "BatchPipelinedSwitch" in v.message
        for v in result.violations
    )


def test_drc121_word_kernel_reachable_via_factory_clean(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/core/batchpath.py": (
            "class BatchPipelinedSwitch:\n"
            "    def run(self): pass\n"
        ),
        "src/repro/core/fastpath.py": (
            "def make_pipelined_switch(cfg, src, kernel=None):\n"
            "    from repro.core.batchpath import BatchPipelinedSwitch\n"
            "    return BatchPipelinedSwitch(cfg, src)\n"
        ),
        "src/repro/scenario/registry.py": "REGISTRY = {}\n",
    })
    assert run_lint(["src"], root=root).violations == []


# -- policy and drop-taxonomy coverage (DRC122) -------------------------------

_ADMISSION_OK = (
    "class AdmissionPolicy:\n    pass\n"
    "class CompleteSharing(AdmissionPolicy):\n    pass\n"
    "POLICIES = {'complete': CompleteSharing}\n"
)

_EVENTS_OK = (
    "DROP_BUFFER_FULL = 'buffer_full'\n"
    "DROP_POLICY = 'policy'\n"
    "DROP_CAUSES = (DROP_BUFFER_FULL, DROP_POLICY)\n"
)


def test_drc122_unregistered_policy(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/policy/admission.py": (
            _ADMISSION_OK + "class Orphan(AdmissionPolicy):\n    pass\n"
        ),
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC122" and "Orphan" in v.message for v in result.violations
    )


def test_drc122_underscore_policy_is_internal(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/policy/admission.py": (
            _ADMISSION_OK + "class _Experimental(AdmissionPolicy):\n    pass\n"
        ),
    })
    assert run_lint(["src"], root=root).violations == []


def test_drc122_registry_references_missing_policy(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/policy/admission.py": (
            "class AdmissionPolicy:\n    pass\n"
            "class CompleteSharing(AdmissionPolicy):\n    pass\n"
            "POLICIES = {'complete': CompleteSharing, 'ghost': GhostPolicy}\n"
        ),
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC122" and "GhostPolicy" in v.message
        for v in result.violations
    )


def test_drc122_drop_cause_missing_from_taxonomy(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/telemetry/events.py": (
            _EVENTS_OK + "DROP_NOVEL = 'novel'\n"
        ),
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC122" and "DROP_NOVEL" in v.message
        for v in result.violations
    )


def test_drc122_missing_taxonomy_tuple(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/telemetry/events.py": "DROP_BUFFER_FULL = 'buffer_full'\n",
    })
    result = run_lint(["src"], root=root)
    assert any(
        v.code == "DRC122" and "DROP_CAUSES" in v.message
        for v in result.violations
    )


def test_drc122_clean_tree(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/policy/admission.py": _ADMISSION_OK,
        "src/repro/telemetry/events.py": _EVENTS_OK,
    })
    assert run_lint(["src"], root=root).violations == []


def test_drc131_slotted_switch_missing_hooks(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/switches/models.py": (
            "class SlottedSwitch:\n    pass\n"
            "class Halfway(SlottedSwitch):\n"
            "    def _admit(self): pass\n"
        ),
    })
    result = run_lint(["src"], root=root)
    assert [v.code for v in result.violations] == ["DRC131"]
    assert "_select_departures" in result.violations[0].message


def test_drc131_hooks_inherited_through_chain_clean(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/switches/models.py": (
            _SLOTTED_OK
            + "class Mid(SlottedSwitch):\n    pass\n"
            + "class Leaf(Mid):\n    pass\n"
        ),
        "src/repro/scenario/registry.py": (
            "from repro import switches as sw\n"
            "B = {'mid': sw.Mid, 'leaf': sw.Leaf}\n"
        ),
    })
    assert run_lint(["src"], root=root).violations == []


# -- driver behaviour: suppressions, parse errors, formats --------------------

def test_suppression_single_code(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/sim/clocky.py":
            "import time\nt = time.time()  # drc: disable=DRC101\n",
    })
    result = run_lint(["src"], root=root)
    assert result.violations == []
    assert result.suppressed == 1


def test_suppression_wrong_code_does_not_silence(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/sim/clocky.py":
            "import time\nt = time.time()  # drc: disable=DRC104\n",
    })
    result = run_lint(["src"], root=root)
    assert [v.code for v in result.violations] == ["DRC101"]


def test_suppression_bare_disable_silences_all(tmp_path):
    assert parse_suppressions("x = 1  # drc: disable\n") == {1: None}
    assert parse_suppressions("x = 1  # drc: disable=DRC101, DRC104\n") == {
        1: {"DRC101", "DRC104"}
    }


def test_parse_error_reported_as_drc001(tmp_path):
    root = _tree(tmp_path, {"src/repro/sim/broken.py": "def oops(:\n"})
    result = run_lint(["src"], root=root)
    assert result.exit_code == 1
    assert [v.code for v in result.all_findings()] == ["DRC001"]


def test_exit_code_zero_when_clean(tmp_path):
    root = _tree(tmp_path, {"src/repro/sim/fine.py": "x = 1\n"})
    result = run_lint(["src"], root=root)
    assert result.exit_code == 0


def test_format_text_counts(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/sim/clocky.py": "import time\nt = time.time()\n",
    })
    text = format_text(run_lint(["src"], root=root))
    assert "DRC101" in text
    assert "1 violation in 1 file" in text


def test_format_json_roundtrips(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/core/dicey.py": "import random\n",
    })
    doc = json.loads(format_json(run_lint(["src"], root=root)))
    assert doc["files_checked"] == 1
    assert [v["code"] for v in doc["violations"]] == ["DRC102"]
    assert doc["violations"][0]["line"] == 1


def test_format_sarif_schema_shape(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/sim/clocky.py": "import time\nt = time.time()\n",
    })
    doc = json.loads(format_sarif(run_lint(["src"], root=root)))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {rule.code for rule in rule_catalog()} == rule_ids
    assert run["results"][0]["ruleId"] == "DRC101"
    loc = run["results"][0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/sim/clocky.py"
    assert loc["region"]["startLine"] == 2


def test_rule_catalog_codes_are_stable():
    codes = [rule.code for rule in rule_catalog()]
    assert codes == sorted(codes)
    assert codes == ["DRC101", "DRC102", "DRC103", "DRC104",
                     "DRC111", "DRC112", "DRC121", "DRC122", "DRC131",
                     "DRC141", "DRC142", "DRC143",
                     "DRC151", "DRC152", "DRC153"]
    assert all(rule.name and rule.summary for rule in rule_catalog())


def test_repository_is_lint_clean():
    """Satellite guarantee: the repo's own src+tests lint with zero
    violations — the DRC catalog is enforced, not aspirational."""
    root = Path(__file__).resolve().parents[2]
    result = run_lint(["src", "tests"], root=root)
    assert result.all_findings() == [], format_text(result)
