#!/usr/bin/env python3
"""Doc-link checker: every path/module reference in the docs must exist.

Scans README.md, ROADMAP.md and docs/*.md for backticked references and
verifies each against the tree:

* **path refs** — whole backtick contents that look like a repository
  path (``src/repro/kba/executor.py``, ``benchmarks/baselines/*.json``).
  Resolved relative to the repo root, then ``src/``; ``*`` wildcards go
  through glob and must match at least one file; a trailing
  ``:<line>`` anchor is ignored.
* **module refs** — whole backtick contents of the form
  ``repro.kba.executor`` or ``repro.kba.executor.execute_node``. The
  module must resolve under ``src/``; when the last component is not a
  module it must name a top-level symbol (def / class / assignment) of
  the parent module, checked via AST.

Anything else inside backticks (shell lines, env vars, code snippets)
is deliberately ignored — the checker only polices references that
claim to point at the tree. Exits 1 listing every stale reference, so
docs cannot drift from a refactor silently; CI runs it as a blocking
step and the tier-1 suite invokes it as a test.
"""

from __future__ import annotations

import ast
import glob
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: documentation files whose references are policed
DOC_FILES = ("README.md", "ROADMAP.md")
DOC_GLOBS = ("docs/*.md",)

_BACKTICK = re.compile(r"`([^`\n]+)`")
#: whole-content shapes that claim to be a repo path: either anchored
#: at a known top-level directory, or any slashed file reference (e.g.
#: ``kv/cache.py``, resolved relative to ``src/repro/`` too)
_PATH_REF = re.compile(
    r"^(?:(?:src|tests|benchmarks|docs|examples|tools|\.github)"
    r"/[\w\-./*]+"
    r"|[\w\-*]+(?:/[\w\-.*]+)+\.(?:py|md|json|yml|yaml|txt|toml|sh))$"
)
_LINE_ANCHOR = re.compile(r":\d+(?:-\d+)?$")
#: whole-content dotted module (optionally .symbol) under repro
_MODULE_REF = re.compile(r"^repro(?:\.\w+)+$")


def doc_files(repo: Path = REPO) -> List[Path]:
    files = [repo / name for name in DOC_FILES if (repo / name).exists()]
    for pattern in DOC_GLOBS:
        files.extend(sorted(repo.glob(pattern)))
    return files


def references(text: str) -> Iterator[Tuple[str, str]]:
    """Yield ('path' | 'module', ref) for every checkable backtick."""
    for match in _BACKTICK.finditer(text):
        ref = match.group(1).strip()
        if _PATH_REF.match(_LINE_ANCHOR.sub("", ref)):
            yield "path", _LINE_ANCHOR.sub("", ref)
        elif _MODULE_REF.match(ref):
            yield "module", ref


def path_exists(ref: str, repo: Path = REPO) -> bool:
    for root in (repo, repo / "src", repo / "src" / "repro"):
        if "*" in ref:
            if glob.glob(str(root / ref)):
                return True
        elif (root / ref).exists():
            return True
    return False


def _module_path(parts: List[str], repo: Path = REPO) -> Path | None:
    """The file for module ``parts``, or None if it is not a module."""
    base = repo / "src" / Path(*parts)
    if (base / "__init__.py").exists():
        return base / "__init__.py"
    candidate = base.with_suffix(".py")
    return candidate if candidate.exists() else None


def _top_level_names(module_file: Path) -> set:
    tree = ast.parse(module_file.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def module_exists(ref: str, repo: Path = REPO) -> bool:
    parts = ref.split(".")
    if _module_path(parts, repo) is not None:
        return True
    module_file = _module_path(parts[:-1], repo)
    if module_file is None:
        return False
    return parts[-1] in _top_level_names(module_file)


def check(repo: Path = REPO) -> List[str]:
    """All stale references, as ``file: kind ref`` strings."""
    stale = []
    for doc in doc_files(repo):
        for kind, ref in references(doc.read_text(encoding="utf-8")):
            ok = path_exists(ref, repo) if kind == "path" else module_exists(
                ref, repo
            )
            if not ok:
                stale.append(f"{doc.relative_to(repo)}: {kind} `{ref}`")
    return stale


def main() -> int:
    stale = check()
    docs = doc_files()
    if stale:
        print(f"doc-link check FAILED ({len(stale)} stale references):")
        for line in stale:
            print(f"  {line}")
        return 1
    print(f"doc-link check OK ({len(docs)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
