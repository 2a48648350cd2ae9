#!/usr/bin/env python
"""Docs smoke check: every relative Markdown link resolves to a real file.

Scans the repository's user-facing Markdown (README.md, docs/, PERFORMANCE.md)
for ``[text](target)`` links and verifies that every *relative* target —
external ``http(s)`` URLs and pure in-page anchors are skipped — exists on
disk, resolving the path against the file that contains the link.  It also
checks that every ``*.md`` name cited in a docstring under ``src/`` (e.g.
``docs/SERVER.md``) names a file that exists, resolved against the
repository root.  Run by CI (the docs smoke step) and by
``tests/test_docs.py`` so a renamed or deleted file cannot silently orphan
the documentation.

Usage::

    python scripts/check_docs.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

#: Markdown files (relative to the repo root) whose links must resolve.
DOC_FILES = (
    "README.md",
    "PERFORMANCE.md",
    "docs/ARCHITECTURE.md",
    "docs/CLI.md",
    "docs/CORPUS.md",
    "docs/SERVER.md",
)

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no nested brackets, no reference-style links).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A Markdown file name cited in prose: ``README.md``, ``docs/CLI.md``.
_MD_NAME = re.compile(r"(?<![\w./:-])\w[\w./-]*\.md\b")


def iter_links(text: str):
    """Yield link targets, skipping fenced code blocks."""
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        yield from _LINK.findall(line)


def check_file(path: Path, root: Path) -> list:
    """Return a list of broken-link messages for one Markdown file."""
    problems = []
    for target in iter_links(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target_path, _, _fragment = target.partition("#")
        if not target_path:  # pure in-page anchor
            continue
        resolved = (path.parent / target_path).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(root)}: broken link "
                            f"-> {target}")
    return problems


def iter_docstrings(source: str):
    """Yield the module, class and function docstrings of Python source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def check_source_citations(root: Path) -> list:
    """Return a message for every ``*.md`` name a ``src/`` docstring cites
    that does not exist relative to the repository root."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        cited = set()
        for docstring in iter_docstrings(path.read_text()):
            cited.update(_MD_NAME.findall(docstring))
        for name in sorted(cited):
            if not (root / name).exists():
                problems.append(f"{path.relative_to(root)}: docstring cites "
                                f"missing {name}")
    return problems


def check_docs(root: Path) -> list:
    """Check every file in :data:`DOC_FILES` (missing doc files are errors)
    and every Markdown file cited by a ``src/`` docstring."""
    problems = []
    for name in DOC_FILES:
        path = root / name
        if not path.exists():
            problems.append(f"missing documentation file: {name}")
            continue
        problems.extend(check_file(path, root))
    problems.extend(check_source_citations(root))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    args = parser.parse_args(argv)

    problems = check_docs(args.root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"docs OK: {len(DOC_FILES)} file(s), all relative links and "
          f"src/ docstring citations resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
