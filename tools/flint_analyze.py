#!/usr/bin/env python3
"""FLINT determinism analyzer: AST/text checks for the bit-identical contract.

The simulator promises bit-identical results at any thread count (DESIGN.md
§11) and across kill/resume (§12). Those guarantees die quietly: iterating a
hash map into a float sum, or stamping sim state from a wall clock, compiles
clean and passes every test that doesn't diff artifacts bitwise. This tool
checks the contract statically, over four FLINT-specific rules clang-tidy
cannot express:

  unordered-iter       a range-for over std::unordered_{map,set,...} whose
                       body reaches a determinism sink: appending to a
                       sequence that is never sorted afterwards, or streaming
                       to an ostream. Hash iteration order is
                       implementation- and history-dependent, so anything
                       order-sensitive downstream inherits that history.
                       The sanctioned idiom — collect then std::sort — is
                       recognized and not flagged.
  nondet-source        wall clocks (steady/system/high_resolution _clock::now),
                       std::random_device, rand/srand, or
                       std::this_thread::get_id outside the observability
                       boundary. src/flint/obs/ is allowlisted wholesale (its
                       whole job is wall-clock measurement); anywhere else a
                       wall-clock read must justify itself inline.
  save-load-symmetry   a serialize_/deserialize_ (save_/load_, put_/get_,
                       append_/read_, write_/read_) function pair whose
                       field-access sequences over the record variable
                       disagree — reordered, missing, or extra fields. The
                       checkpoint format has no per-field tags; symmetry of
                       the two walks IS the format.
  float-accum          += / -= on a float or double inside an unordered
                       range-for (directly, or one call deep into a helper
                       defined in the same file). Float addition is not
                       bitwise-commutative, so a hash-order fold produces
                       last-ulp differences between runs that inserted in a
                       different order — exactly the fresh-vs-resumed split.

Scope: each file is analyzed together with the project headers it directly
includes (per-translation-unit scope), so member and container types
resolve from declarations without a compiler. Pure Python; runs everywhere.

Suppressions: `// flint-analyze: allow(<check>): <reason>` on the offending
line or up to 3 lines above (multi-line statements put the match on a
continuation line). The reason is mandatory — an allowlist entry without a
justification is itself a finding.

Usage:
  tools/flint_analyze.py [--self-test] [paths...]        (default: src)

Exit: 0 clean, 1 findings (or self-test failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CHECKS = ("unordered-iter", "nondet-source", "save-load-symmetry", "float-accum")

SUPPRESS_RE = re.compile(r"//\s*flint-analyze:\s*allow\(([a-z-]+)\)\s*:\s*(.*)")

# Paths (relative, substring match on posix form) where wall-clock reads are
# the point: the observability subsystem measures real time by design, and
# the rpc runtime's heartbeat/lease deadlines are real-time by nature (its
# results stay deterministic because leases are pure functions of their
# payloads, not of when they run — DESIGN.md §14).
NONDET_PATH_ALLOWLIST = ("src/flint/obs/", "src/flint/rpc/")

UNORDERED_TYPES = r"std::unordered_(?:map|set|multimap|multiset)"
ORDERED_TYPES = r"std::(?:map|set|multimap|multiset|vector|deque|list|array)"

# Declarations: `std::unordered_map<K, V> name` (members, locals, params).
UNORDERED_DECL_RE = re.compile(
    UNORDERED_TYPES + r"\s*<[^;{}()]*?>\s*(?:&|\*)?\s*(\w+)\s*(?:=|;|,|\)|\{)")
ORDERED_DECL_RE = re.compile(
    ORDERED_TYPES + r"\s*<[^;{}()]*?>\s*(?:&|\*)?\s*(\w+)\s*(?:=|;|,|\)|\{)")
# Functions/methods returning (a reference to) an unordered container.
UNORDERED_FN_RE = re.compile(
    r"(?:const\s+)?" + UNORDERED_TYPES + r"\s*<[^;{}()]*?>\s*&?\s*(\w+)\s*\(")

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=|;|,|\)|\{)")

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*"
    r"(\[[^\]]*\]|\w+)\s*:\s*([\w.\->()]+?)\s*\)")

NONDET_RE = re.compile(
    r"std::random_device|\bsrand\s*\(|\bstd::rand\s*\(|"
    r"\b(?:steady_clock|system_clock|high_resolution_clock)::now\s*\(|"
    r"this_thread::get_id\s*\(")

# Method names that read a container without being record fields; field
# sequences keep `v.field` but drop `v.size()` etc.
CONTAINER_METHODS = {
    "size", "resize", "reserve", "push_back", "emplace_back", "pop_back",
    "begin", "end", "rbegin", "rend", "data", "clear", "empty", "front",
    "back", "at", "count", "find", "insert", "emplace", "erase", "c_str",
}

SINK_APPEND_RE = re.compile(r"\b(\w+)\.(?:push_back|emplace_back|insert|emplace)\s*\(")

SAVE_LOAD_PREFIXES = [
    ("serialize_", "deserialize_"),
    ("save_", "load_"),
    ("put_", "get_"),
    ("append_", "read_"),
    ("write_", "read_"),
]


class Finding:
    def __init__(self, path: Path, line: int, check: str, message: str):
        self.path, self.line, self.check, self.message = path, line, check, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank comment and string-literal contents, preserving line structure.

    Regex checks must not fire on `// steady_clock::now()` in prose or on
    "rand(" inside a string. Newlines survive so line numbers stay aligned.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif mode in ("string", "char"):
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c)
            elif c == "\n":  # unterminated (macro line continuation); bail out
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class SourceFile:
    """One file plus the derived views every check shares."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        # line (1-based) -> {check: reason}
        self.allows: dict[int, dict[str, str]] = {}
        for idx, line in enumerate(self.lines):
            m = SUPPRESS_RE.search(line)
            if m:
                self.allows.setdefault(idx + 1, {})[m.group(1)] = m.group(2).strip()

    def allowed(self, check: str, lineno: int) -> bool:
        """allow() on the line itself or up to 3 lines above (continuations)."""
        for ln in range(max(1, lineno - 3), lineno + 1):
            if check in self.allows.get(ln, {}):
                return True
        return False


def load_file(path: Path) -> SourceFile:
    return SourceFile(path, path.read_text(encoding="utf-8", errors="replace"))


# --------------------------------------------------------------------------
# Per-TU scope: a file plus its directly-included project headers.
# Container types for members and locals resolve against this text.
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"', re.MULTILINE)


def resolve_includes(path: Path, include_dirs: list[Path], depth: int = 2) -> list[Path]:
    """Project headers reachable from `path` within `depth` include hops.

    Two hops covers the codebase's layering (a .cpp includes its own header,
    which includes the record/type headers it exposes) without dragging the
    whole tree into every TU's scope."""
    found: list[Path] = []
    seen = {path.resolve()}

    def visit(p: Path, d: int) -> None:
        if d == 0:
            return
        for inc in INCLUDE_RE.findall(p.read_text(encoding="utf-8", errors="replace")):
            for base in [p.parent] + include_dirs:
                cand = base / inc
                if cand.is_file():
                    r = cand.resolve()
                    if r not in seen:
                        seen.add(r)
                        found.append(cand)
                        visit(cand, d - 1)
                    break

    visit(path, depth)
    return found


class TuScope:
    """Name -> container-kind map for one translation unit."""

    def __init__(self, main: SourceFile, headers: list[SourceFile]):
        self.main = main
        corpus = "\n".join([main.code] + [h.code for h in headers])
        unordered = set(UNORDERED_DECL_RE.findall(corpus))
        ordered = set(ORDERED_DECL_RE.findall(corpus))
        # A name declared both ways in scope (e.g. `last_participation` as an
        # unordered map in the runner and a sorted vector in SimCheckpoint) is
        # ambiguous without real type info; skip rather than false-positive.
        self.unordered_names = unordered - ordered
        self.unordered_fns = set(UNORDERED_FN_RE.findall(corpus)) - ordered
        floats = set(FLOAT_DECL_RE.findall(corpus))
        self.float_names = floats

    def range_is_unordered(self, range_expr: str) -> bool:
        expr = range_expr.strip()
        call = expr.endswith("()")
        if call:
            expr = expr[:-2]
        # Take the trailing component of a.b, a->b, this->b.
        name = re.split(r"\.|->", expr)[-1]
        if call:
            return name in self.unordered_fns
        return name in self.unordered_names

    def is_float(self, lvalue: str) -> bool:
        name = re.split(r"\.|->", lvalue.strip())[-1]
        return name in self.float_names


# --------------------------------------------------------------------------
# Structural helpers over the comment/string-stripped text.
# --------------------------------------------------------------------------

def line_of(offset: int, text: str) -> int:
    return text.count("\n", 0, offset) + 1


def body_span(text: str, open_from: int) -> tuple[int, int]:
    """(start, end) offsets of the brace-balanced block starting at or after
    open_from; (-1, -1) when the next statement is unbraced or unterminated."""
    i = open_from
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    if i >= len(text) or text[i] != "{":
        # Unbraced single-statement body: up to the terminating semicolon.
        end = text.find(";", i)
        return (i, end + 1) if end != -1 else (-1, -1)
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return (i, j + 1)
    return (-1, -1)


def enclosing_function_tail(text: str, from_offset: int) -> str:
    """Text from from_offset to the end of the enclosing function — the
    region where a collect-then-sort idiom would place its std::sort."""
    depth = 0
    for j in range(from_offset, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            if depth == 0:
                return text[from_offset:j]
            depth -= 1
    return text[from_offset:]


def same_file_function_bodies(code: str) -> dict[str, tuple[int, str]]:
    """name -> (def line, body) for free/member functions defined in `code`."""
    out: dict[str, tuple[int, str]] = {}
    for m in re.finditer(r"\b(\w+)\s*\([^;{}]*\)\s*(?:const\s*)?\{", code):
        name = m.group(1)
        if name in ("if", "for", "while", "switch", "catch", "return", "sizeof"):
            continue
        start, end = body_span(code, m.end() - 1)
        if start != -1:
            out.setdefault(name, (line_of(m.start(), code), code[start:end]))
    return out


# --------------------------------------------------------------------------
# Check 1 + 4: unordered iteration sinks and float accumulation.
# --------------------------------------------------------------------------

FLOAT_ACCUM_RE = re.compile(r"([\w.\->\[\]]+)\s*[+\-]\s*=(?!=)")
CALL_RE = re.compile(r"\b(\w+)\s*\(")


def check_unordered_loops(sf: SourceFile, scope: TuScope) -> list[Finding]:
    findings: list[Finding] = []
    code = sf.code
    fn_bodies = same_file_function_bodies(code)
    for m in RANGE_FOR_RE.finditer(code):
        if not scope.range_is_unordered(m.group(2)):
            continue
        loop_line = line_of(m.start(), code)
        start, end = body_span(code, m.end())
        if start == -1:
            continue
        body = code[start:end]
        tail = enclosing_function_tail(code, end)

        # --- unordered-iter: order-sensitive sinks ---
        for sm in SINK_APPEND_RE.finditer(body):
            target = sm.group(1)
            sink_line = loop_line + body.count("\n", 0, sm.start())
            # Collect-then-sort: appending into a vector that the same
            # function sorts afterwards is the sanctioned way to iterate a
            # hash map deterministically.
            if re.search(r"std::(?:stable_)?sort\s*\(\s*" + re.escape(target) + r"\.", tail):
                continue
            if sf.allowed("unordered-iter", sink_line):
                continue
            findings.append(Finding(
                sf.path, sink_line, "unordered-iter",
                f"appends to '{target}' while iterating unordered "
                f"'{m.group(2)}' (line {loop_line}); hash order leaks into a "
                f"sequence — sort '{target}' afterwards or iterate a sorted "
                f"view"))
        if "<<" in body:
            sink_line = loop_line + body.count("\n", 0, body.find("<<"))
            if not sf.allowed("unordered-iter", sink_line):
                findings.append(Finding(
                    sf.path, sink_line, "unordered-iter",
                    f"streams output while iterating unordered "
                    f"'{m.group(2)}' (line {loop_line}); emitted order is "
                    f"hash-dependent — iterate a sorted copy"))

        # --- float-accum: direct, then one call deep ---
        def accum_findings(hay: str, base_line: int, via: str = "") -> None:
            for am in FLOAT_ACCUM_RE.finditer(hay):
                lhs = am.group(1)
                if not scope.is_float(lhs):
                    continue
                acc_line = base_line + hay.count("\n", 0, am.start())
                where = f" via {via}()" if via else ""
                report_line = acc_line if not via else loop_line
                if sf.allowed("float-accum", report_line):
                    continue
                findings.append(Finding(
                    sf.path, report_line, "float-accum",
                    f"float accumulation into '{lhs}'{where} while iterating "
                    f"unordered '{m.group(2)}' (line {loop_line}); float "
                    f"addition is not bitwise-commutative — fold in sorted "
                    f"key order"))

        accum_findings(body, loop_line)
        for cm in CALL_RE.finditer(body):
            callee = cm.group(1)
            if callee in fn_bodies:
                _, callee_body = fn_bodies[callee]
                accum_findings(callee_body, loop_line, via=callee)
    return findings


# --------------------------------------------------------------------------
# Check 2: nondeterminism sources.
# --------------------------------------------------------------------------

def check_nondet_sources(sf: SourceFile) -> list[Finding]:
    posix = sf.path.as_posix()
    if any(allowed in posix for allowed in NONDET_PATH_ALLOWLIST):
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines):
        m = NONDET_RE.search(line)
        if not m:
            continue
        lineno = idx + 1
        if sf.allowed("nondet-source", lineno):
            continue
        findings.append(Finding(
            sf.path, lineno, "nondet-source",
            f"'{m.group(0).strip()}' outside the obs/ wall-clock boundary; "
            f"sim results must be a pure function of the seed — derive from "
            f"util::Rng / virtual time, or justify with "
            f"// flint-analyze: allow(nondet-source): <why>"))
    return findings


# std::*_distribution algorithms are implementation-defined: libstdc++ and
# libc++ draw different values from the same engine state, so any use makes
# results a function of the standard library rather than the seed. There is
# no allowlist: util/rng writes every sampler out by hand, and the corpus
# keeps a case inside util/rng to prove the ban holds there too.
DISTRIBUTION_RE = re.compile(r"\bstd::\w+_distribution\b")


def check_distribution_sources(sf: SourceFile) -> list[Finding]:
    findings = []
    for idx, line in enumerate(sf.code_lines):
        m = DISTRIBUTION_RE.search(line)
        if not m:
            continue
        lineno = idx + 1
        if sf.allowed("nondet-source", lineno):
            continue
        findings.append(Finding(
            sf.path, lineno, "nondet-source",
            f"'{m.group(0)}': std distribution algorithms are "
            f"implementation-defined, so traces diverge across standard "
            f"libraries — draw through util::Rng, or justify with "
            f"// flint-analyze: allow(nondet-source): <why>"))
    return findings


# --------------------------------------------------------------------------
# Check 3: save/load field-pairing symmetry.
# --------------------------------------------------------------------------

FN_DEF_RE = re.compile(r"\b(\w+)\s*\(([^;{})]*)\)\s*(?:const\s*)?\{")


def record_candidates(params: str, body: str) -> list[str]:
    """Possible record variables: reference parameters plus a returned local.

    Which one is the record is decided by evidence, not qualifiers: the
    candidate whose field-access sequence is longest is the one the function
    is actually walking (stream/writer handles only ever appear in method
    calls, which field_sequence discards)."""
    names = [pm.group(1) for pm in re.finditer(r"&\s*(\w+)\s*(?:,|$)", params)]
    rm = re.search(r"\breturn\s+(\w+)\s*;", body)
    if rm and rm.group(1) not in names:
        names.append(rm.group(1))
    return names


def best_field_sequence(params: str, body: str) -> list[str]:
    best: list[str] = []
    for var in record_candidates(params, body):
        seq = field_sequence(body, var)
        if len(seq) > len(best):
            best = seq
    return best


def field_sequence(body: str, var: str) -> list[str]:
    """Ordered field accesses on `var`, recursing one level into range-for
    sub-record loops (`for (auto& t : var.member)` -> member.field...)."""
    aliases: dict[str, str] = {}
    for am in re.finditer(
            r"for\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*(\w+)\s*:\s*"
            + re.escape(var) + r"\.(\w+)\s*\)", body):
        aliases[am.group(1)] = am.group(2)
    seq: list[str] = []
    access = re.compile(
        r"\b(" + "|".join([re.escape(var)] + [re.escape(a) for a in aliases]) +
        r")\.(\w+)\b(\s*\()?")
    for fm in access.finditer(body):
        base, field, is_call = fm.group(1), fm.group(2), fm.group(3)
        if is_call or field in CONTAINER_METHODS:
            continue
        entry = field if base == var else f"{aliases[base]}.{field}"
        if not seq or seq[-1] != entry:  # collapse re-reads of one field
            seq.append(entry)
    return seq


def check_save_load_symmetry(sf: SourceFile) -> list[Finding]:
    code = sf.code
    fns: dict[str, tuple[int, str, str]] = {}  # name -> (line, params, body)
    for m in FN_DEF_RE.finditer(code):
        name = m.group(1)
        if name in ("if", "for", "while", "switch", "catch"):
            continue
        start, end = body_span(code, m.end() - 1)
        if start == -1:
            continue
        fns.setdefault(name, (line_of(m.start(), code), m.group(2), code[start:end]))

    findings = []
    for wprefix, rprefix in SAVE_LOAD_PREFIXES:
        for name, (wline, wparams, wbody) in fns.items():
            if not name.startswith(wprefix):
                continue
            stem = name[len(wprefix):]
            reader = fns.get(rprefix + stem)
            if reader is None:
                continue
            rline, rparams, rbody = reader

            # Compare first-occurrence order: re-reading an already-walked
            # field (a trailing FLINT_CHECK_FINITE on a restored value) is
            # validation, not a second format walk.
            def first_occurrence(seq: list[str]) -> list[str]:
                seen: set[str] = set()
                out = []
                for s in seq:
                    if s not in seen:
                        seen.add(s)
                        out.append(s)
                return out

            wseq = first_occurrence(best_field_sequence(wparams, wbody))
            rseq = first_occurrence(best_field_sequence(rparams, rbody))
            # Size-prefix helpers and pure method-call walks have no field
            # sequence to pair; demanding symmetry there is noise.
            if len(wseq) < 2 or len(rseq) < 2:
                continue
            if wseq != rseq:
                if sf.allowed("save-load-symmetry", rline):
                    continue
                findings.append(Finding(
                    sf.path, rline, "save-load-symmetry",
                    f"{rprefix + stem} walks fields [{', '.join(rseq)}] but "
                    f"{name} (line {wline}) wrote [{', '.join(wseq)}]; the "
                    f"format is the walk order — the two must match exactly"))
    return findings


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def dedupe(findings: list[Finding]) -> list[Finding]:
    """One report per distinct fact: a helper called N times in one loop
    still describes one accumulation-order problem."""
    seen: set[str] = set()
    out = []
    for f in findings:
        key = str(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def analyze_file_text(path: Path, include_dirs: list[Path]) -> list[Finding]:
    sf = load_file(path)
    headers = []
    for hp in resolve_includes(path, include_dirs):
        try:
            headers.append(load_file(hp))
        except OSError:
            pass
    scope = TuScope(sf, headers)
    findings = []
    findings.extend(check_unordered_loops(sf, scope))
    findings.extend(check_nondet_sources(sf))
    findings.extend(check_distribution_sources(sf))
    findings.extend(check_save_load_symmetry(sf))
    return dedupe(findings)


# --------------------------------------------------------------------------
# Self-test corpus.
# --------------------------------------------------------------------------

def run_self_test(corpus_dir: Path, include_dirs: list[Path]) -> int:
    files = sorted(corpus_dir.rglob("*.cpp"))
    if not files:
        print(f"flint_analyze: empty corpus at {corpus_dir}", file=sys.stderr)
        return 2
    failures = 0
    for f in files:
        findings = analyze_file_text(f, include_dirs)
        stem = f.stem
        name = f.relative_to(corpus_dir).as_posix()
        if stem.startswith("bad_"):
            expected = stem[len("bad_"):].rsplit("_case", 1)[0].replace("_", "-")
            hits = [x for x in findings if x.check == expected]
            if not hits:
                print(f"SELF-TEST FAIL {name}: expected >=1 '{expected}' "
                      f"finding, got {[str(x) for x in findings]}")
                failures += 1
            else:
                print(f"self-test ok   {name}: {len(hits)} x {expected}")
        elif stem.startswith("good_"):
            if findings:
                print(f"SELF-TEST FAIL {name}: expected clean, got:")
                for x in findings:
                    print(f"  {x}")
                failures += 1
            else:
                print(f"self-test ok   {name}: clean")
    print(f"flint_analyze self-test: "
          f"{len(files)} files, {failures} failure(s)")
    return 1 if failures else 0


# --------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=[], help="files or dirs (default: src)")
    ap.add_argument("--self-test", action="store_true",
                    help="run over tools/analyze_corpus/ and verify expectations")
    opts = ap.parse_args(argv[1:])

    repo = Path(__file__).resolve().parent.parent
    include_dirs = [repo / "src"]

    if opts.self_test:
        return run_self_test(Path(__file__).resolve().parent / "analyze_corpus", include_dirs)

    roots = [Path(p) for p in (opts.paths or [repo / "src"])]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cpp")))
        else:
            print(f"flint_analyze: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for f in files:
        findings.extend(analyze_file_text(f, include_dirs))

    for finding in findings:
        print(finding)
    print(f"flint_analyze: {len(files)} files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
