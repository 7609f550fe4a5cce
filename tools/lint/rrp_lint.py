#!/usr/bin/env python3
"""Repository linter for the rrp codebase.

Enforces repo-specific correctness rules that generic compiler warnings
cannot express:

  no-abort-assert     Library code (src/) must not call std::abort or use
                      the C `assert` macro; failures must surface as
                      rrp::Error exceptions or RRP_INVARIANT checks so
                      callers and tests can observe them.
  no-float-numerics   Solver numerics (src/lp, src/milp, src/core) are
                      double-precision throughout; a stray `float`
                      silently truncates and corrupts cost figures.
  no-naked-new        No raw `new` expressions in library code; use
                      containers, std::make_unique, or values.
  pragma-once         Every header uses `#pragma once` (no #ifndef-style
                      include guards, no unguarded headers).
  no-build-artifacts  No build outputs (build/, CMakeCache.txt, *.o,
                      LastTest.log, ...) tracked by git.
  no-raw-clock        No direct std::chrono clock reads
                      (steady_clock/system_clock/high_resolution_clock
                      ::now()) outside src/common/; time must flow
                      through rrp::common::Clock / Deadline so solver
                      deadlines stay injectable and tests deterministic.

Usage: rrp_lint.py [ROOT] [--quiet]
Exit status is 0 when clean, 1 when any violation is found.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import subprocess
import sys
from dataclasses import dataclass

CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")
HEADER_EXTENSIONS = (".hpp", ".h", ".hh")

LIBRARY_DIR = "src"
NUMERIC_DIRS = ("src/lp", "src/milp", "src/core")
CLOCK_DIR = "src/common"  # the one home of raw std::chrono clock reads
HEADER_DIRS = ("src", "tests", "bench", "tools", "examples")

ARTIFACT_PATTERNS = [
    re.compile(p)
    for p in (
        r"(^|/)build(-[^/]+)?/",
        r"(^|/)CMakeCache\.txt$",
        r"(^|/)CMakeFiles/",
        r"(^|/)CTestTestfile\.cmake$",
        r"(^|/)cmake_install\.cmake$",
        r"(^|/)Testing/",
        r"(^|/)LastTest\.log$",
        r"(^|/)DartConfiguration\.tcl$",
        r"\.o$",
        r"\.obj$",
        r"\.a$",
        r"\.so(\.\d+)*$",
        r"\.pyc$",
        r"(^|/)__pycache__/",
    )
]

RE_ABORT = re.compile(r"\b(?:std\s*::\s*)?abort\s*\(")
RE_ASSERT = re.compile(r"(?<![\w])assert\s*\(")
RE_FLOAT = re.compile(r"\bfloat\b")
RE_NEW = re.compile(r"\bnew\b")
RE_RAW_CLOCK = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)
RE_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")
RE_IFNDEF_GUARD = re.compile(r"^\s*#\s*ifndef\s+\w+_(H|HPP|H_|HPP_)\b")


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def gitignore_patterns(root: str) -> list[str]:
    """Patterns of the root .gitignore; comments, blank lines and
    negations (`!pattern`) are skipped."""
    try:
        with open(os.path.join(root, ".gitignore"), encoding="utf-8") as f:
            lines = [line.strip() for line in f]
    except OSError:
        return []
    return [p for p in lines if p and not p.startswith(("#", "!"))]


def is_ignored(rel: str, is_dir: bool, patterns: list[str]) -> bool:
    """Whether repo-relative `rel` matches a .gitignore pattern (the
    subset the repo uses: globs, a trailing `/` for directories only, and
    a `/` inside the pattern anchoring it at the root)."""
    name = rel.rsplit("/", 1)[-1]
    for pattern in patterns:
        if pattern.endswith("/"):
            if not is_dir:
                continue
            pattern = pattern.rstrip("/")
        if "/" in pattern:
            if fnmatch.fnmatchcase(rel, pattern.lstrip("/")):
                return True
        elif fnmatch.fnmatchcase(name, pattern):
            return True
    return False


def tracked_files(root: str) -> list[str]:
    """Repo-relative paths of files subject to lint.

    Prefers `git ls-files` (which also powers the committed-artifact
    rule); falls back to walking the tree when git is unavailable (an
    exported source tree, say).  The walk skips what the root
    .gitignore ignores, so a build tree next to the sources is not taken
    for committed artifacts.
    """
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files", "-z"],
            capture_output=True,
            check=True,
        )
        files = [f for f in out.stdout.decode().split("\0") if f]
        if files:
            return files
    except (OSError, subprocess.CalledProcessError):
        pass
    patterns = gitignore_patterns(root)
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
        prefix = "" if rel_dir == "." else rel_dir + "/"
        dirnames[:] = [
            d
            for d in dirnames
            if d != ".git" and not is_ignored(prefix + d, True, patterns)
        ]
        for name in filenames:
            if not is_ignored(prefix + name, False, patterns):
                files.append(prefix + name)
    return files


def strip_comments_and_strings(text: str) -> list[str]:
    """Blanks out comments and string/char literals, preserving line
    structure so violation line numbers stay accurate."""
    out: list[str] = []
    state = "code"  # code | block_comment | string | char
    line_chars: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(line_chars))
            line_chars = []
            if state == "string" or state == "char":
                state = "code"  # unterminated literal; be forgiving
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                # Line comment: skip to end of line.
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                line_chars.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                line_chars.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                line_chars.append(" ")
                i += 1
                continue
            line_chars.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                line_chars.append("  ")
                i += 2
            else:
                line_chars.append(" ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                line_chars.append("  ")
                i += 2
            elif (state == "string" and c == '"') or (
                state == "char" and c == "'"
            ):
                state = "code"
                line_chars.append(" ")
                i += 1
            else:
                line_chars.append(" ")
                i += 1
    if line_chars:
        out.append("".join(line_chars))
    return out


def in_dir(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + "/")


def check_cpp_file(path: str, text: str) -> list[Violation]:
    violations: list[Violation] = []
    lines = strip_comments_and_strings(text)
    is_library = in_dir(path, LIBRARY_DIR)
    is_numeric = any(in_dir(path, d) for d in NUMERIC_DIRS)
    is_clock_home = in_dir(path, CLOCK_DIR)
    is_header = path.endswith(HEADER_EXTENSIONS) and any(
        in_dir(path, d) for d in HEADER_DIRS
    )

    for lineno, line in enumerate(lines, start=1):
        if is_library:
            if RE_ABORT.search(line):
                violations.append(
                    Violation(
                        path,
                        lineno,
                        "no-abort-assert",
                        "library code must not call abort(); throw "
                        "rrp::Error or use RRP_INVARIANT",
                    )
                )
            m = RE_ASSERT.search(line)
            if m and "static_assert" not in line[: m.start() + len("assert")]:
                violations.append(
                    Violation(
                        path,
                        lineno,
                        "no-abort-assert",
                        "library code must not use the C assert macro; "
                        "use RRP_EXPECTS/RRP_INVARIANT",
                    )
                )
            if RE_NEW.search(line):
                violations.append(
                    Violation(
                        path,
                        lineno,
                        "no-naked-new",
                        "no raw new expressions; use containers or "
                        "std::make_unique",
                    )
                )
        if is_numeric and RE_FLOAT.search(line):
            violations.append(
                Violation(
                    path,
                    lineno,
                    "no-float-numerics",
                    "solver numerics must use double, not float",
                )
            )
        if not is_clock_home and RE_RAW_CLOCK.search(line):
            violations.append(
                Violation(
                    path,
                    lineno,
                    "no-raw-clock",
                    "read time via rrp::common::Clock/Deadline, not "
                    "std::chrono clocks; only src/common/ may touch "
                    "them directly",
                )
            )

    if is_header:
        has_pragma = any(RE_PRAGMA_ONCE.search(l) for l in lines)
        guard_line = next(
            (
                i
                for i, l in enumerate(lines, start=1)
                if RE_IFNDEF_GUARD.search(l)
            ),
            None,
        )
        if not has_pragma:
            violations.append(
                Violation(
                    path,
                    1,
                    "pragma-once",
                    "header is missing #pragma once",
                )
            )
        if guard_line is not None:
            violations.append(
                Violation(
                    path,
                    guard_line,
                    "pragma-once",
                    "use #pragma once instead of #ifndef include guards",
                )
            )
    return violations


def check_artifacts(files: list[str]) -> list[Violation]:
    violations = []
    for path in files:
        for pattern in ARTIFACT_PATTERNS:
            if pattern.search(path):
                violations.append(
                    Violation(
                        path,
                        1,
                        "no-build-artifacts",
                        "build artifact must not be committed "
                        "(add it to .gitignore)",
                    )
                )
                break
    return violations


def lint(root: str) -> list[Violation]:
    files = tracked_files(root)
    violations = check_artifacts(files)
    for path in files:
        if not path.endswith(CPP_EXTENSIONS):
            continue
        abspath = os.path.join(root, path)
        try:
            with open(abspath, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue  # deleted/unreadable tracked file; not a lint issue
        violations.extend(check_cpp_file(path, text))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "root",
        nargs="?",
        default=".",
        help="repository root to lint (default: cwd)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the all-clean message"
    )
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"rrp_lint: error: no such directory: {args.root}",
              file=sys.stderr)
        return 2

    violations = lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"rrp_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print("rrp_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
