"""The walk-once node index and the deep-nesting DRC001 findings.

``LintModule.walk`` replaces every ``ast.walk`` in the lint engine, so it
must hand back exactly the nodes ``ast.walk`` yields, in the same order,
for any tree the engine sees.  Files nested too deep to parse or to
analyze become a DRC001 finding on that file, never a traceback.
"""

import ast
from pathlib import Path

import pytest

from repro.drc import discover_files, run_lint
from repro.drc.rules import LintModule

REPO = Path(__file__).resolve().parents[2]
DRC_SRC = REPO / "src" / "repro" / "drc"
CORPUS = Path(__file__).parent / "corpus"


def _lint_files() -> list[Path]:
    files = discover_files(["src", "tests"], root=REPO)
    files += discover_files([CORPUS], root=REPO)
    return sorted(set(files))


def test_walk_matches_ast_walk_on_every_file():
    files = _lint_files()
    assert any("corpus" in f.parts for f in files)
    n_functions = 0
    for path in files:
        mod = LintModule.parse(path, path.relative_to(REPO).as_posix(),
                               path.read_text(encoding="utf-8"))
        assert mod.walk() == list(ast.walk(mod.tree)), path
        for node in mod.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n_functions += 1
                assert mod.walk(node) == list(ast.walk(node)), (
                    f"{path}:{node.lineno}")
    assert n_functions > 1000


def test_walk_is_computed_once_per_node():
    mod = LintModule.parse(Path("m.py"), "m.py",
                           "def f(a):\n    return [a.b for _ in a]\n")
    fn = mod.tree.body[0]
    assert mod.walk() is mod.walk(None) is mod.walk(mod.tree)
    assert mod.walk(fn) is mod.walk(fn)
    assert mod.walk(fn) == list(ast.walk(fn))


def test_no_ast_walk_outside_the_index():
    """Every subtree walk in the engine goes through LintModule.walk."""
    offenders = []
    for path in sorted(DRC_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "walk"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "ast"):
                offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "ast"
                  and any(a.name == "walk" for a in node.names)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], (
        f"ast.walk calls bypass the memoised index: {offenders}")


# -- deep nesting -------------------------------------------------------------

_CLOCKY = "import time\nstart = time.time()\n"


def _deep_tree(tmp_path: Path, depth: int) -> Path:
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "deep.py").write_text("x = " + "-" * depth + "1\n")
    (core / "clocky.py").write_text(_CLOCKY)
    return tmp_path


def _findings(tmp_path: Path, jobs: int) -> list[tuple[str, str, str]]:
    result = run_lint(["src"], root=tmp_path, jobs=jobs)
    return [(v.code, v.path, v.message) for v in result.all_findings()]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("depth,error", [(3000, "RecursionError"),
                                         (10000, "MemoryError")])
def test_too_deep_to_parse_is_drc001(tmp_path, depth, error, jobs):
    found = _findings(_deep_tree(tmp_path, depth), jobs)
    assert [(code, path) for code, path, _ in found] == [
        ("DRC101", "src/repro/core/clocky.py"),
        ("DRC001", "src/repro/core/deep.py"),
    ]
    assert found[1][2] == (f"file could not be parsed: nesting too deep "
                           f"for the parser ({error})")


@pytest.mark.parametrize("jobs", [1, 2])
def test_too_deep_to_analyze_is_drc001(tmp_path, jobs):
    """Parses fine, but the RNG-provenance expression walk recurses once
    per level; the file is reported and the rest of the project lints."""
    root = _deep_tree(tmp_path, 990)
    ast.parse((root / "src/repro/core/deep.py").read_text())
    found = _findings(root, jobs)
    assert [(code, path) for code, path, _ in found] == [
        ("DRC101", "src/repro/core/clocky.py"),
        ("DRC001", "src/repro/core/deep.py"),
    ]
    assert "nest too deep for the RNG-provenance analysis" in found[1][2]


def _lint_from_deeper_stack(root: Path, frames: int) -> list[str]:
    if frames:
        return _lint_from_deeper_stack(root, frames - 1)
    return [v.code for v in run_lint(["src"], root=root).all_findings()]


@pytest.mark.parametrize("frames", [0, 300])
def test_analysis_depth_cap_ignores_caller_stack(tmp_path, frames):
    """Past the fixed nesting cap the finding is DRC001 however deep the
    caller's stack already is; under it the file is analyzed."""
    root = _deep_tree(tmp_path, 600)
    assert _lint_from_deeper_stack(root, frames) == ["DRC101", "DRC001"]
    (root / "src/repro/core/deep.py").write_text("x = " + "-" * 300 + "1\n")
    assert _lint_from_deeper_stack(root, frames) == ["DRC101"]
