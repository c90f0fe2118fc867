"""Whole-result cache: warm runs must be bit-identical to cold ones at
any ``--jobs``, any content change must be a cold run, and anything
unexpected in the cache file must degrade to a cold run, never an error."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.drc import rules_fingerprint, run_lint

_TREE = {
    "src/repro/core/a.py": "LIMIT = 4\n",
    "src/repro/core/b.py": (
        "from repro.core.a import LIMIT\n"
        "def pick(items):\n"
        "    for x in {1, LIMIT}:\n"
        "        yield x\n"
    ),
    "src/repro/core/c.py": "def idle():\n    return 0\n",
}


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)


def _lint(root: Path, *, jobs: int = 1, cache: bool = True):
    cache_dir = root / ".drc-cache" if cache else None
    return run_lint(["src"], root=root, jobs=jobs, cache_dir=cache_dir)


def _same_result(a, b) -> bool:
    return (a.all_findings() == b.all_findings()
            and a.suppressed == b.suppressed
            and a.files_checked == b.files_checked)


def test_warm_run_is_bit_identical_and_parses_nothing(tmp_path):
    _write(tmp_path, _TREE)
    cold = _lint(tmp_path)
    warm = _lint(tmp_path)
    assert cold.stats["cache"] == "cold"
    assert warm.stats["cache"] == "hit"
    assert warm.files_analyzed == 0
    assert warm.violations == cold.violations
    assert warm.suppressed == cold.suppressed
    assert warm.parse_errors == cold.parse_errors
    assert [v.code for v in cold.violations] == ["DRC104"]


def _assert_cold_rerun(root: Path, change) -> None:
    # the whole-result cache has no partial mode: any content change
    # re-analyzes every file, matches a no-cache run, and rewrites the
    # entry so the next run is a hit
    _write(root, _TREE)
    _lint(root)
    change(root / "src/repro/core")
    rerun = _lint(root)
    assert rerun.stats["cache"] == "cold"
    assert rerun.files_analyzed == rerun.files_checked
    assert _same_result(rerun, _lint(root, cache=False))
    assert _lint(root).stats["cache"] == "hit"


def test_partial_invalidation_follows_reverse_imports(tmp_path):
    # editing a dependency of b.py keeps b.py's finding
    _assert_cold_rerun(tmp_path,
                       lambda core: (core / "a.py").write_text("LIMIT = 5\n"))
    assert [v.code for v in _lint(tmp_path).violations] == ["DRC104"]


def test_independent_module_change_reanalyzes_one_file(tmp_path):
    # an edit to a module nothing imports, and an added module
    _assert_cold_rerun(tmp_path, lambda core: (core / "c.py").write_text(
        "def idle():\n    return 1\n"))
    _assert_cold_rerun(tmp_path, lambda core: (core / "d.py").write_text(
        "def walk():\n    for x in {1, 2}:\n        yield x\n"))
    assert [v.code for v in _lint(tmp_path).violations] == ["DRC104"] * 2


def test_removed_file_invalidates_importers(tmp_path):
    _write(tmp_path, _TREE)
    cold = _lint(tmp_path)
    _assert_cold_rerun(tmp_path, lambda core: (core / "c.py").unlink())
    warm = _lint(tmp_path)
    assert warm.files_checked == cold.files_checked - 1
    assert warm.violations == cold.violations


def test_fingerprint_mismatch_forces_cold_run(tmp_path):
    _write(tmp_path, _TREE)
    cold = _lint(tmp_path)
    cache_file = tmp_path / ".drc-cache/cache.json"
    blob = json.loads(cache_file.read_text())
    blob["fingerprint"] = "stale"
    cache_file.write_text(json.dumps(blob))
    warm = _lint(tmp_path)
    assert warm.stats["cache"] == "cold"
    assert warm.files_analyzed == warm.files_checked
    assert warm.violations == cold.violations


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    _write(tmp_path, _TREE)
    cold = _lint(tmp_path)
    (tmp_path / ".drc-cache/cache.json").write_text("{not json")
    warm = _lint(tmp_path)
    assert warm.stats["cache"] == "cold"
    assert warm.violations == cold.violations


def test_per_file_cache_format_is_ignored(tmp_path):
    # the earlier engine's layout: per-file entries plus a project blob,
    # here even under the current fingerprint
    _write(tmp_path, _TREE)
    (tmp_path / ".drc-cache").mkdir()
    (tmp_path / ".drc-cache/cache.json").write_text(json.dumps({
        "fingerprint": rules_fingerprint(),
        "files": {rel: {"sha": "0", "findings": [], "suppressed": 0,
                        "parse_error": None, "imports": []}
                  for rel in _TREE},
        "project": {"agg": "0", "findings": [], "suppressed": 0},
    }))
    rerun = _lint(tmp_path)
    assert rerun.stats["cache"] == "cold"
    assert _same_result(rerun, _lint(tmp_path, cache=False))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

#: documents shaped like a cache entry (or the earlier per-file layout)
#: under the current fingerprint, with arbitrary field values; an
#: arbitrary ``agg`` never names the tree
_CACHE_LIKE = st.fixed_dictionaries(
    {"fingerprint": st.just(rules_fingerprint())},
    optional={key: _JSON for key in (
        "agg", "findings", "parse_errors", "suppressed", "files", "project")},
)

_CACHE_BYTES = (
    st.binary(max_size=64)
    | (_JSON | _CACHE_LIKE).map(lambda v: json.dumps(v).encode())
)


@settings(max_examples=60, deadline=None)
@given(blob=_CACHE_BYTES)
def test_arbitrary_cache_file_never_raises(blob):
    with tempfile.TemporaryDirectory(prefix="drc-cache-") as tmp:
        root = Path(tmp)
        _write(root, _TREE)
        (root / ".drc-cache").mkdir()
        (root / ".drc-cache/cache.json").write_bytes(blob)
        assert _same_result(_lint(root), _lint(root, cache=False))


def test_jobs_do_not_change_findings(tmp_path):
    files = dict(_TREE)
    for i in range(8):
        files[f"src/repro/core/m{i}.py"] = (
            f"def walk{i}():\n"
            f"    for x in {{1, {i}}}:\n"
            f"        yield x\n"
        )
    _write(tmp_path, files)
    serial = _lint(tmp_path, jobs=1, cache=False)
    parallel = _lint(tmp_path, jobs=2, cache=False)
    assert serial.violations == parallel.violations
    assert serial.suppressed == parallel.suppressed
    assert len(serial.violations) == 9


@settings(max_examples=12, deadline=None)
@given(suppress=st.lists(st.booleans(), min_size=1, max_size=5),
       exempt=st.booleans())
def test_suppressions_round_trip_through_cache_and_diff(suppress, exempt):
    # random mix of `# drc: disable=` / `checkpoint-exempt` markers:
    # warm must equal cold finding-for-finding
    body = ["def f():"]
    for i, off in enumerate(suppress):
        tail = "  # drc: disable=DRC104" if off else ""
        body.append(f"    for v{i} in {{1, {i}}}:{tail}")
        body.append("        pass")
    marker = "  # drc: checkpoint-exempt" if exempt else ""
    files = {
        "src/repro/core/loops.py": "\n".join(body) + "\n",
        "src/repro/core/k.py": (
            "class MiniKernel:\n"
            "    def __init__(self):\n"
            "        self.cycle = 0\n"
            "        self.scratch = []\n"
            "    def run(self, n):\n"
            "        self.cycle = self.cycle + n\n"
            f"        self.scratch.append(n){marker}\n"
        ),
        "src/repro/checkpoint/snap.py": (
            "from repro.core.k import MiniKernel\n"
            "def _kernel_of(switch):\n"
            "    if type(switch) is MiniKernel:\n"
            "        return 'mini'\n"
            "    raise TypeError\n"
            "def _snap_mini(sw):\n"
            "    return {'cycle': sw.cycle}\n"
            "def snapshot_switch(switch):\n"
            "    kernel = _kernel_of(switch)\n"
            "    if kernel == 'mini':\n"
            "        body = _snap_mini(switch)\n"
            "    else:\n"
            "        body = None\n"
            "    return {'kernel': kernel, 'body': body}\n"
        ),
    }
    with tempfile.TemporaryDirectory(prefix="drc-prop-") as tmp:
        root = Path(tmp)
        _write(root, files)
        cold = _lint(root)
        warm = _lint(root)
        assert warm.stats["cache"] == "hit"
        assert warm.violations == cold.violations
        assert warm.suppressed == cold.suppressed
        expected = {"DRC104": suppress.count(False)}
        if not exempt:
            expected["DRC151"] = 1
        got: dict[str, int] = {}
        for v in warm.violations:
            got[v.code] = got.get(v.code, 0) + 1
        assert got == {k: n for k, n in expected.items() if n}
