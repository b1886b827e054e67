#!/usr/bin/env python3
"""Unit tests for tools/flint_lint.py over the fixture corpus.

Each fixture in tools/lint_corpus/ encodes one behavior: the three parsing
bugs the rules used to have (a commented-out `// #pragma once` satisfying the
header rule, rule text inside multi-line block comments firing, keywords
inside string literals firing), plus positive controls proving the rules
still fire on real violations and honor inline allow() suppressions.

Exit: 0 all expectations hold, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from flint_lint import lint_file  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "lint_corpus"

# corpus-relative path -> exact multiset of rules expected to fire
# (empty = must be clean). Subdirectories matter: the rpc/ fixtures exist
# precisely because the rpc-spans rule keys on "rpc" being a path component.
EXPECTATIONS: dict[str, list[str]] = {
    "commented_pragma.h": ["pragma-once"],
    "good_header.h": [],
    "block_comment_throw.cpp": [],
    "string_throw.cpp": [],
    "real_throw.cpp": ["throw"],
    "raw_thread.cpp": ["raw-thread", "rng"],
    "suppressed_throw.cpp": [],
    "raw_socket.cpp": ["rpc", "rpc"],
    "rpc/raw_span.cpp": ["rpc-spans", "rpc-spans"],
    "rpc/span_guard_ok.cpp": [],
    # One finding per offending line: the include, the two AVX2 body lines,
    # and the NEON spelling. ml/kernels/ is the rule's one allowed home.
    "simd_intrinsics.cpp": ["simd", "simd", "simd", "simd"],
    "ml/kernels/simd_ok.cpp": [],
    # util/rng gets no exemption: its own engine is hand-written.
    "util/rng.cpp": ["rng"],
}


def main() -> int:
    failures = 0
    fixture_names = {p.relative_to(CORPUS).as_posix()
                     for p in CORPUS.rglob("*") if p.suffix in (".h", ".cpp")}
    missing = fixture_names.symmetric_difference(EXPECTATIONS)
    if missing:
        print(f"FAIL corpus/expectations out of sync: {sorted(missing)}")
        failures += 1

    for name, expected in sorted(EXPECTATIONS.items()):
        path = CORPUS / name
        if not path.is_file():
            continue  # already reported above
        got = sorted(f.rule for f in lint_file(path))
        if got != sorted(expected):
            print(f"FAIL {name}: expected rules {sorted(expected)}, got {got}")
            for f in lint_file(path):
                print(f"  {f}")
            failures += 1
        else:
            print(f"ok   {name}: {got or 'clean'}")

    print(f"flint_lint_test: {len(EXPECTATIONS)} fixtures, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
