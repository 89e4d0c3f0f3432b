#!/usr/bin/env python3
"""Determinism lint for the DARTH-PUM serving/runtime tree.

Every invariant the simulator ships — bit-identical outputs across
pool sizes, placement policies, and admission granularities — rests
on the code being free of hidden nondeterminism. This lint statically
bans the sources of it in the scheduling-relevant trees
(src/runtime, src/serve, src/apps, src/journal):

  unordered-container   std::unordered_map / std::unordered_set (and
                        their multi variants). Iteration order is
                        implementation-defined; anywhere near
                        scheduling or placement it silently reorders
                        service. Use std::map, a sorted vector, or
                        key by a stable id.
  pointer-keyed-order   Ordered containers keyed on pointers
                        (std::map<T*, ...>, std::set<T*>,
                        std::less<T*>). Address order changes run to
                        run with ASLR and allocator state.
  wall-clock            std::chrono clocks, time(), clock(),
                        gettimeofday, clock_gettime. Simulated time
                        is the only clock the runtime may read;
                        benches may time themselves, which is why
                        bench/ is not scanned.
  raw-rand              rand(), srand(), std::random_device —
                        unseeded or environment-dependent entropy.
  std-engine            std::mt19937 and friends, and the std
                        distributions. Their output is not guaranteed
                        identical across standard-library
                        implementations (see common/Random.h); use
                        the explicitly seeded darth::Rng.
  static-mutable-local  `static` non-const local state. Mutable
                        function-local state persists across calls,
                        so a call's result depends on call history;
                        hoist it into the owning object instead.
  raw-thread            std::thread / std::jthread / pthread_create.
                        The simulator is single-threaded by design:
                        every run is one deterministic event loop,
                        and an ad-hoc thread would make results
                        depend on host scheduling.

The lint is a regex pass, not a compiler plugin (the hybrid
clang-query mode is used automatically when clang-query is on PATH
to double-check container verdicts; absence of clang-query only
skips that refinement). Findings can be allowlisted for audited
exceptions, either

  * inline, by appending  // determinism-lint: allow(<rule>) <why>
    to the flagged line, or
  * centrally, in tools/determinism_lint_allow.txt — one
    `<rule> <path-substring> <line-regex-or-*>  # why` per line.

Exit status: 0 when no unallowlisted findings, 1 otherwise, 2 on
usage errors.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

SCAN_DIRS = ["src/runtime", "src/serve", "src/apps", "src/journal"]
EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")

INLINE_ALLOW = re.compile(
    r"//\s*determinism-lint:\s*allow\(([a-z-]+)\)")

# Each rule: (id, compiled regex, message). Comments and string
# literals are stripped before matching, so prose about e.g.
# std::chrono does not trip the lint.
RULES = [
    (
        "unordered-container",
        re.compile(r"\bunordered_(?:multi)?(?:map|set)\b"),
        "unordered container: iteration order is implementation-"
        "defined; use std::map / a sorted vector / stable-id keys",
    ),
    (
        "pointer-keyed-order",
        re.compile(
            r"\b(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
            r"[\w:]+(?:\s*<[^<>]*>)?\s*\*"
            r"|\bless\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
        "pointer-keyed ordering: address order varies run to run; "
        "key by a stable id instead",
    ),
    (
        "wall-clock",
        re.compile(
            r"\bstd\s*::\s*chrono\b|\bgettimeofday\s*\("
            r"|\bclock_gettime\s*\(|(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0|\))"
            r"|(?<![\w.:])clock\s*\(\s*\)"),
        "wall-clock read: simulated components must derive timing "
        "from simulated cycles, never the host clock",
    ),
    (
        "raw-rand",
        re.compile(
            r"(?<![\w.:])s?rand\s*\(|\brandom_device\b"),
        "environment-dependent entropy: use an explicitly seeded "
        "darth::Rng",
    ),
    (
        "std-engine",
        re.compile(
            r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
            r"default_random_engine|ranlux\w+|knuth_b|"
            r"(?:uniform_int|uniform_real|normal|bernoulli|poisson|"
            r"exponential)_distribution)\b"),
        "std random engine/distribution: output differs across "
        "standard-library implementations; use darth::Rng",
    ),
    (
        "static-mutable-local",
        # `static` followed by a type and a variable introducer that
        # is not const/constexpr and not a function declaration
        # (identifier immediately followed by '(' with no '=' first).
        re.compile(
            r"^\s+static\s+(?!const\b|constexpr\b|_Thread_local\b|"
            r"thread_local\b)"
            r"(?:[\w:]+(?:\s*<[^;()]*>)?(?:\s*[&*])*\s+)+"
            r"(\w+)\s*(?:=|;|\{)"),
        "static mutable local/member state: persists across calls, "
        "so results depend on call history; hoist into the owning "
        "object",
    ),
    (
        "raw-thread",
        re.compile(
            r"\bstd\s*::\s*(?:jthread|thread)\b"
            r"|\bpthread_create\s*\("),
        "raw thread spawn: the simulator is single-threaded so "
        "results never depend on host scheduling; keep the work on "
        "the calling thread",
    ),
]

RULE_IDS = [rule_id for rule_id, _, _ in RULES]


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure (and preserving inline determinism-lint markers, which
    live in comments)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = text.find("\n", i)
            if end == -1:
                end = n
            comment = text[i:end]
            marker = INLINE_ALLOW.search(comment)
            # Keep the allow marker text so per-line checks still
            # see it; blank everything else.
            out.append(marker.group(0) if marker else "")
            i = end
        elif ch == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                # Unterminated literal on this line (e.g. a raw
                # string or an apostrophe in prose): stop at EOL so
                # one quote cannot swallow the rest of the file.
                if text[j] == "\n":
                    j -= 1
                    break
                j += 1
            out.append(quote + quote)
            i = min(j + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class AllowEntry:
    def __init__(self, rule, path_part, line_pattern, source):
        self.rule = rule
        self.path_part = path_part
        self.line_pattern = line_pattern
        self.source = source
        self.used = False

    def matches(self, rule, path, line_text):
        if self.rule != rule and self.rule != "*":
            return False
        if self.path_part not in path.replace(os.sep, "/"):
            return False
        if self.line_pattern == "*":
            return True
        return re.search(self.line_pattern, line_text) is not None


def load_allowlist(path):
    entries = []
    if not path or not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                print(f"{path}:{lineno}: malformed allowlist entry "
                      f"(want: <rule> <path-part> [line-regex])",
                      file=sys.stderr)
                sys.exit(2)
            rule = parts[0]
            if rule != "*" and rule not in RULE_IDS:
                print(f"{path}:{lineno}: unknown rule '{rule}' "
                      f"(known: {', '.join(RULE_IDS)})",
                      file=sys.stderr)
                sys.exit(2)
            entries.append(AllowEntry(
                rule, parts[1],
                parts[2] if len(parts) > 2 else "*",
                f"{path}:{lineno}"))
    return entries


def clang_query_refine(files):
    """Optional clang-query pass: confirm unordered-container hits
    via the AST when clang-query exists. Purely additive — regex
    findings stand on their own when it is absent."""
    if shutil.which("clang-query") is None:
        return None
    matcher = ("match valueDecl(hasType(classTemplateSpecializationDecl("
               "matchesName(\"::std::unordered_\"))))")
    hits = set()
    for path in files:
        try:
            proc = subprocess.run(
                ["clang-query", "-c", matcher, path, "--",
                 "-std=c++20"],
                capture_output=True, text=True, timeout=60)
        except (subprocess.TimeoutExpired, OSError):
            return None
        for m in re.finditer(r"([^\s:]+):(\d+):\d+:", proc.stdout):
            hits.add((m.group(1), int(m.group(2))))
    return hits


def scan_file(path, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    text = strip_comments_and_strings(raw)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        inline = INLINE_ALLOW.search(line)
        for rule_id, pattern, message in RULES:
            if not pattern.search(line):
                continue
            if inline and inline.group(1) in (rule_id, "*"):
                continue
            findings.append((path, lineno, rule_id, message,
                             line.strip()))


def collect_files(roots):
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def main():
    parser = argparse.ArgumentParser(
        description="Determinism lint (see module docstring).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan "
                             f"(default: {' '.join(SCAN_DIRS)} "
                             "relative to --root)")
    parser.add_argument("--root", default=".",
                        help="repository root the default scan "
                             "directories are resolved against")
    parser.add_argument("--allowlist",
                        help="allowlist file (default: "
                             "<root>/tools/determinism_lint_allow.txt"
                             "; pass /dev/null to disable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule_id, _, message in RULES:
            print(f"{rule_id}: {message}")
        return 0

    roots = args.paths or [os.path.join(args.root, d)
                           for d in SCAN_DIRS]
    for root in roots:
        if not os.path.exists(root):
            print(f"determinism_lint: no such path: {root}",
                  file=sys.stderr)
            return 2

    allow_path = args.allowlist
    if allow_path is None:
        allow_path = os.path.join(args.root, "tools",
                                  "determinism_lint_allow.txt")
    allowlist = load_allowlist(allow_path)

    files = collect_files(roots)
    findings = []
    for path in files:
        scan_file(path, findings)

    ast_hits = clang_query_refine(
        [p for p, _, r, _, _ in findings
         if r == "unordered-container"]) if findings else None

    failures = 0
    for path, lineno, rule_id, message, line_text in findings:
        matched = [e for e in allowlist
                   if e.matches(rule_id, path, line_text)]
        if matched:
            for entry in matched:
                entry.used = True
            continue
        confirmed = ""
        if (ast_hits is not None and rule_id == "unordered-container"
                and (path, lineno) in ast_hits):
            confirmed = " [AST-confirmed]"
        print(f"{path}:{lineno}: [{rule_id}]{confirmed} {message}")
        print(f"    {line_text}")
        failures += 1

    for entry in allowlist:
        if not entry.used:
            print(f"note: unused allowlist entry at {entry.source} "
                  f"({entry.rule} {entry.path_part})",
                  file=sys.stderr)

    if failures:
        print(f"determinism_lint: {failures} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"determinism_lint: clean ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
