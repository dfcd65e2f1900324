"""Lexical pattern rules R1-R4 and R6-R8 (ported from detlint v1)
plus the R5 standalone-header compile check.

These run per file over stripped text; R2 additionally reads the
same-stem sibling header so member declarations are visible when
linting a definition file.
"""

import os
import re
import subprocess

from lexer import strip_code, balanced_span, line_of

# --------------------------------------------------------------- R1

R1_BANNED = [
    (re.compile(r"\b\w*_clock\s*::\s*now\s*\("),
     "wall-clock read (std::chrono ...::now())"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock read (time())"),
    (re.compile(r"\b(?:clock_gettime|gettimeofday|clock)\s*\(\s*[A-Z_,&\w\s]*\)"),
     "wall-clock read"),
    (re.compile(r"\bs?rand\s*\(\s*\)|\bsrand\s*\("),
     "C rand()/srand(); use mitts::Random (seeded, checkpointable)"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device; use mitts::Random (seeded, checkpointable)"),
]


def check_r1(path, code, report):
    for pat, what in R1_BANNED:
        for m in pat.finditer(code):
            report("R1", line_of(code, m.start()),
                   "banned nondeterminism source: %s" % what)


# --------------------------------------------------------------- R2

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s*[&*]?\s*"
    r"(?:const\s+)?(\w+)\s*[;,={(\[)]")
KEY_COPY_STMT_RE = re.compile(
    r"^\s*(?:\w+\.(?:push_back|emplace_back|insert)\s*\([^;]*\)|continue)\s*;\s*$")


def unordered_names(code):
    """Identifiers declared (member, local or parameter) with an
    unordered_map/unordered_set type anywhere in this file."""
    return set(m.group(1) for m in UNORDERED_DECL_RE.finditer(code))


def loop_body_span(code, pos):
    """Span of the loop body starting at `pos` (just after the closing
    paren of `for (...)`): a balanced {...} block or a single
    statement."""
    while pos < len(code) and code[pos] in " \t\n":
        pos += 1
    if pos >= len(code):
        return pos, pos
    if code[pos] == "{":
        end = balanced_span(code, pos, "{", "}")
        return pos + 1, (end - 1 if end > 0 else len(code))
    semi = code.find(";", pos)
    return pos, (semi + 1 if semi >= 0 else len(code))


def body_only_copies_keys(body):
    stmts = [s.strip() for s in body.strip().splitlines() if s.strip()]
    if not stmts:
        return False
    return all(KEY_COPY_STMT_RE.match(s) for s in stmts)


def sibling_header_code(path):
    """Stripped text of the same-stem header next to a .cc/.cpp file,
    so member declarations are visible when linting the definition."""
    stem, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp"):
        return ""
    for hext in (".hh", ".hpp", ".h"):
        hdr = stem + hext
        if os.path.isfile(hdr):
            try:
                with open(hdr, encoding="utf-8",
                          errors="replace") as f:
                    return strip_code(f.read())
            except OSError:
                return ""
    return ""


def check_r2(path, code, report):
    names = unordered_names(code) | unordered_names(
        sibling_header_code(path))
    for m in re.finditer(r"\bfor\s*\(", code):
        end = balanced_span(code, m.end() - 1)
        if end < 0:
            continue
        head = code[m.end():end - 1]
        line = line_of(code, m.start())
        target = None
        # Range-for: `for (decl : expr)`
        colon = re.search(r":(?!:)", head)
        if colon:
            expr = head[colon.end():].strip()
            ids = set(re.findall(r"\w+", expr))
            if "unordered_map" in expr or "unordered_set" in expr:
                target = expr
            elif ids & names:
                target = (ids & names).pop()
        else:
            # Iterator loop: `for (auto it = name.begin(); ...)`
            it = re.search(r"=\s*(\w+)\s*\.\s*(?:begin|cbegin)\s*\(",
                           head)
            if it and it.group(1) in names:
                target = it.group(1)
        if not target:
            continue
        body_start, body_end = loop_body_span(code, end)
        if body_only_copies_keys(code[body_start:body_end]):
            continue  # sanctioned copy-keys-then-sort idiom
        report("R2", line,
               "iteration over unordered container '%s'; order is "
               "not deterministic. hint: collect and sort keys "
               "first (see SharedLlc::saveState / PAR-BS)" % target)


# --------------------------------------------------------------- R3

R3_PATTERNS = [
    (re.compile(r"\b(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
                r"[\w:]+(?:\s*<[^<>]*>)?\s*\*"),
     "associative container keyed on a raw pointer; pointer order "
     "varies run to run. hint: key on a stable id (core id, seq num, "
     "address)"),
    (re.compile(r"\bunordered_(?:map|set)\s*<\s*(?:const\s+)?"
                r"[\w:]+(?:\s*<[^<>]*>)?\s*\*"),
     "unordered container keyed on a raw pointer; both hash and "
     "iteration order vary run to run. hint: key on a stable id"),
    (re.compile(r"\bstd::hash\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
     "hashing a raw pointer value. hint: hash a stable id instead"),
    (re.compile(r"\bstd::less\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
     "ordering by raw pointer value. hint: compare a stable id"),
    (re.compile(r"\b(\w+)\.get\(\)\s*[<>]=?\s*(\w+)\.get\(\)"),
     "comparing raw pointer values from smart pointers. hint: "
     "compare a stable id instead"),
]
# `unordered_map<const MemRequest *, id>` used purely for positional
# interning is still R3: detlint cannot see intent, so such uses carry
# an inline allow.


def check_r3(path, code, report):
    for pat, what in R3_PATTERNS:
        for m in pat.finditer(code):
            report("R3", line_of(code, m.start()), what)


# --------------------------------------------------------------- R4

CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?:\s*([^{;]*?)\{")
MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?[\w:]+(?:\s*<[^;{}]*>)?(?:\s*[&*])*\s+"
    r"\w+_\s*(?:=[^;]*|\{[^;]*\})?;", re.M)


def class_body(code, brace_pos):
    end = balanced_span(code, brace_pos, "{", "}")
    return code[brace_pos + 1:end - 1] if end > 0 else code[brace_pos + 1:]


def strip_nested_classes(body):
    """Remove nested class/struct bodies so their members/overrides
    don't count for the outer class."""
    out = body
    while True:
        m = CLASS_RE.search(out)
        if not m:
            m2 = re.search(r"\b(?:class|struct)\s+\w+\s*\{", out)
            if not m2:
                return out
            start, brace = m2.start(), out.find("{", m2.start())
        else:
            start, brace = m.start(), out.find("{", m.end() - 1)
        end = balanced_span(out, brace, "{", "}")
        if end < 0:
            return out
        out = out[:start] + out[end:]


def check_r4(path, code, report):
    for m in CLASS_RE.finditer(code):
        name, bases = m.group(1), m.group(2)
        if not re.search(r"\bClocked\b", bases):
            continue
        line = line_of(code, m.start())
        brace = code.find("{", m.end() - 1)
        body = strip_nested_classes(class_body(code, brace))
        if not MEMBER_RE.search(body):
            continue  # stateless wrapper: defaults are safe
        missing = []
        if not re.search(r"\bnextWakeTick\s*\(", body):
            missing.append("nextWakeTick (skip-ahead wake claim)")
        if not re.search(r"\bsaveState\s*\(", body):
            missing.append("saveState (checkpointing)")
        if not re.search(r"\bloadState\s*\(", body):
            missing.append("loadState (checkpointing)")
        for what in missing:
            report("R4", line,
                   "Clocked subclass '%s' declares member state but "
                   "does not override %s" % (name, what))


# --------------------------------------------------------------- R6

R6_BANNED_INCLUDES = ("sim/clocked.hh", "sim/event_queue.hh")


def check_r6(path, code, raw_lines, report):
    """src/analytic/ is the closed-form tier: its components are pure
    functions of a SystemConfig, so they must never enter the Clocked
    contract or the event loop."""
    for m in CLASS_RE.finditer(code):
        name, bases = m.group(1), m.group(2)
        if re.search(r"\bClocked\b", bases):
            report("R6", line_of(code, m.start()),
                   "analytic component '%s' derives from Clocked; "
                   "the analytic tier is closed-form and must not "
                   "be stepped" % name)
    # Includes live inside string literals, which strip_code blanks;
    # scan the raw lines instead.
    inc_re = re.compile(r'^\s*#\s*include\s*[<"]([^">]+)[">]')
    for idx, line in enumerate(raw_lines, start=1):
        m = inc_re.match(line)
        if m and m.group(1) in R6_BANNED_INCLUDES:
            report("R6", idx,
                   "analytic tier includes %s; closed-form "
                   "components must stay out of the Clocked/event "
                   "contract" % m.group(1))


# --------------------------------------------------------------- R7

# The arena itself is the one place allowed to materialize storage.
R7_EXEMPT = (os.path.join("src", "mem", "request_pool.hh"),)
R7_PATTERNS = [
    (re.compile(r"\bshared_ptr\s*<\s*(?:const\s+)?MemRequest\b"),
     "shared_ptr<MemRequest>; requests live in the RequestPool slab "
     "arena. hint: hold a ReqPtr (mem/request_pool.hh)"),
    (re.compile(r"\bmake_shared\s*<\s*(?:const\s+)?MemRequest\b"),
     "make_shared<MemRequest>; requests are born only via "
     "RequestPool::make"),
    (re.compile(r"\bmake_unique\s*<\s*(?:const\s+)?MemRequest\s*>"),
     "make_unique<MemRequest>; requests are born only via "
     "RequestPool::make"),
    (re.compile(r"\bnew\s+MemRequest\b"),
     "raw `new MemRequest` outside the pool; requests are born only "
     "via RequestPool::make"),
]


def check_r7(path, code, report):
    for pat, what in R7_PATTERNS:
        for m in pat.finditer(code):
            report("R7", line_of(code, m.start()), what)


# --------------------------------------------------------------- R8

# Mutating growth of an identifier that names result-like state.
# `merged_os << chunk` and `slots[idx] = chunk` stay legal: both are
# index-driven, not arrival-driven.
R8_ACCUM_RE = re.compile(
    r"\b(\w*(?:result|merged|record)\w*)\s*"
    r"(?:\.\s*(?:push_back|emplace_back|append)\s*\(|\+=)",
    re.IGNORECASE)


def check_r8(path, code, report):
    """src/orchestrate/ merges worker results; any container of
    results grown in arrival order breaks the byte-identical-merge
    contract the moment two workers race."""
    for m in R8_ACCUM_RE.finditer(code):
        report("R8", line_of(code, m.start()),
               "arrival-order accumulation into '%s'; results must "
               "be assigned into index-addressed slots and merged by "
               "unit index, never appended in completion order"
               % m.group(1))


# --------------------------------------------------------------- R5

def include_closure(root, hdr, memo=None):
    """Transitive `#include "..."` closure of a header, resolved
    against src/ -- the exact input set of its standalone compile, so
    the R5 cache key covers every file whose edit could change the
    result."""
    if memo is None:
        memo = {}
    if hdr in memo:
        return memo[hdr]
    memo[hdr] = []  # cycle guard
    src_dir = os.path.join(root, "src")
    out = [hdr]
    try:
        with open(hdr, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError:
        memo[hdr] = out
        return out
    for m in re.finditer(r'^\s*#\s*include\s*"([^"]+)"', text, re.M):
        cand = os.path.join(src_dir, m.group(1))
        if os.path.isfile(cand):
            out.extend(include_closure(root, cand, memo))
    seen = set()
    uniq = [p for p in out
            if not (p in seen or seen.add(p))]
    memo[hdr] = uniq
    return uniq


def check_r5(root, headers, report, cxx):
    src_dir = os.path.join(root, "src")
    for hdr in headers:
        rel = os.path.relpath(hdr, src_dir)
        cmd = [cxx, "-std=c++20", "-fsyntax-only", "-x", "c++",
               "-I", src_dir, "-"]
        tu = '#include "%s"\n' % rel
        try:
            proc = subprocess.run(
                cmd, input=tu, capture_output=True, text=True,
                timeout=60)
        except (OSError, subprocess.TimeoutExpired) as e:
            report("R5", hdr, 1,
                   "could not compile header standalone: %s" % e)
            continue
        if proc.returncode != 0:
            first = next(
                (ln for ln in proc.stderr.splitlines()
                 if ": error:" in ln or ": fatal error:" in ln),
                proc.stderr.strip().splitlines()[0]
                if proc.stderr.strip() else "unknown error")
            report("R5", hdr, 1,
                   "MITTS_ASSERT-bearing header does not compile "
                   "standalone: %s" % first.strip())
