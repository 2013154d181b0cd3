"""The run context every benchmark result carries."""
from __future__ import annotations

import ast
import io
import os
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding code: no blank, comment-only or docstring lines."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def git_revision(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from ``.git`` without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context(root: Path, python: str, numpy: str) -> dict:
    sources = sorted((root / "src" / "labopt").rglob("*.py"))
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": python,
        "numpy": numpy,
        "git_revision": git_revision(root),
        "source_code_lines": sum(code_lines(p.read_text()) for p in sources),
        "limits": (
            "wall and process CPU time only; no system-wide tracing; no cache drop; "
            f"no cgroup or CPU-frequency control; {nproc} cores shared with the "
            "rest of the machine"
        ),
    }
