"""The doc-link checker (PR 10): unit behavior + the shipped tree passes."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_doc_links as cdl  # noqa: E402


class TestReferenceExtraction:
    def test_path_refs_extracted(self):
        text = "see `src/repro/kba/executor.py` and `docs/ARCHITECTURE.md`"
        assert list(cdl.references(text)) == [
            ("path", "src/repro/kba/executor.py"),
            ("path", "docs/ARCHITECTURE.md"),
        ]

    def test_line_anchor_stripped(self):
        text = "at `src/repro/errors.py:12`"
        assert list(cdl.references(text)) == [
            ("path", "src/repro/errors.py"),
        ]

    def test_module_refs_extracted(self):
        text = "uses `repro.kba.executor` and `repro.baav.block.split_block`"
        assert [r for _, r in cdl.references(text)] == [
            "repro.kba.executor",
            "repro.baav.block.split_block",
        ]

    def test_shell_and_env_snippets_ignored(self):
        text = (
            "run `PYTHONPATH=src python -m pytest -q` with "
            "`REPRO_MVCC=0` or `pip install x`; `a and b`"
        )
        assert list(cdl.references(text)) == []


class TestResolution:
    def test_existing_path(self):
        assert cdl.path_exists("src/repro/kba/executor.py")

    def test_missing_path(self):
        assert not cdl.path_exists("src/repro/kba/nonexistent.py")

    def test_wildcard_path(self):
        assert cdl.path_exists("benchmarks/baselines/BENCH_*.json")
        assert not cdl.path_exists("benchmarks/baselines/NOPE_*.json")

    def test_module(self):
        assert cdl.module_exists("repro.kba.executor")
        assert cdl.module_exists("repro.kba")  # package __init__
        assert not cdl.module_exists("repro.kba.imaginary")

    def test_module_symbol(self):
        assert cdl.module_exists("repro.kba.executor.execute_node")
        assert cdl.module_exists("repro.baav.block.Block")
        assert not cdl.module_exists("repro.kba.executor.not_a_symbol")


def test_shipped_docs_have_no_stale_references():
    """The same gate CI runs: the committed docs must be link-clean."""
    stale = cdl.check()
    assert stale == [], "\n".join(stale)


def test_checker_catches_stale_reference(tmp_path):
    (tmp_path / "README.md").write_text(
        "broken: `src/repro/gone.py` and `repro.kba.ghost`\n"
    )
    (tmp_path / "src").mkdir()
    stale = cdl.check(tmp_path)
    assert len(stale) == 2
    assert "src/repro/gone.py" in stale[0]
    assert "repro.kba.ghost" in stale[1]
