"""Seeded-defect corpus: every new rule family demonstrated exactly.

Each fixture under ``tests/drc/corpus/`` carries one defect class and an
``expected.json`` freezing the ``(code, path, line)`` triples the engine
must produce — compared exactly, so a rule that drifts (extra findings,
moved anchors, lost findings) fails here first.
"""

import json
from pathlib import Path

import pytest

from repro.drc import discover_files, run_lint

CORPUS = Path(__file__).parent / "corpus"
FIXTURES = sorted(p.name for p in CORPUS.iterdir()
                  if p.is_dir() and (p / "expected.json").exists())


def test_corpus_has_every_new_code():
    seen = set()
    for name in FIXTURES:
        for row in json.loads((CORPUS / name / "expected.json").read_text()):
            seen.add(row["code"])
    assert seen == {"DRC141", "DRC142", "DRC143",
                    "DRC151", "DRC152", "DRC153"}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_findings_exact(name):
    fixture = CORPUS / name
    expected = [(row["code"], row["path"], row["line"])
                for row in json.loads((fixture / "expected.json").read_text())]
    result = run_lint(["src"], root=fixture)
    got = [(v.code, v.path, v.line) for v in result.all_findings()]
    assert sorted(got) == sorted(expected)


def test_sentinel_hides_corpus_from_repo_self_lint():
    repo = Path(__file__).resolve().parents[2]
    found = discover_files(["tests"], root=repo)
    assert not any("corpus" in f.parts for f in found), (
        "the .drc-skip sentinel must prune the corpus from recursive "
        "discovery")
    # an explicitly passed fixture directory still lints
    explicit = discover_files([CORPUS / FIXTURES[0]], root=repo)
    assert explicit, "explicit fixture paths must bypass the sentinel"
