#!/usr/bin/env python3
"""Orphan-header check for the DARTH-PUM library.

A library header that only its own .cpp and the tests include is a
layer nothing calls: the tests keep it compiling, but no bench,
example, perfbench workload or other library code reaches it. This
check fails on every such header under src/, so dead modules are
deleted (or given a real caller) instead of accumulating.

A header counts as used when some file outside tests/ includes it,
other than its own .cpp (same directory and stem) — unless that
includer is itself an orphan header or an orphan header's .cpp. The
orphan set is the fixed point of that rule, so a module whose
headers include only each other (an encoder, an assembler and the
front end built on them) is flagged as a whole.

Includes are matched by their path relative to src/ (the library's
one include root), e.g. `#include "digital/Pipeline.h"`.

Usage:  python3 tools/check_orphan_headers.py [--root REPO]
Exit status: 0 when no header is orphaned, 1 otherwise.
"""

import argparse
import os
import re
import sys

# Trees whose files count as includers. tests/ is scanned too, but
# an include from there never makes a header used.
INCLUDER_DIRS = ("src", "bench", "examples", "perfbench", "tests")
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc", ".cxx")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def collect_sources(root):
    """Repository-relative paths of every source file to scan."""
    out = []
    for top in INCLUDER_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
    return out


def own_cpp(header):
    """The .cpp that implements `header` (src/x/Foo.h -> .cpp)."""
    return os.path.splitext(header)[0] + ".cpp"


def find_orphans(root):
    sources = collect_sources(root)
    headers = [p for p in sources
               if p.startswith("src" + os.sep) and p.endswith(".h")]
    includers = {h: set() for h in headers}
    by_include = {os.path.relpath(h, "src"): h for h in headers}
    for path in sources:
        with open(os.path.join(root, path), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        for name in INCLUDE_RE.findall(text):
            header = by_include.get(name)
            if header is not None and path != header:
                includers[header].add(path)

    def is_test(path):
        return path.startswith("tests" + os.sep)

    orphans = set()
    changed = True
    while changed:
        changed = False
        dead = orphans | {own_cpp(h) for h in orphans}
        for header in headers:
            if header in orphans:
                continue
            live = [p for p in includers[header]
                    if not is_test(p) and p != own_cpp(header)
                    and p not in dead]
            if not live:
                orphans.add(header)
                changed = True
    return sorted(orphans), includers


def main():
    parser = argparse.ArgumentParser(
        description="Orphan-header check (see module docstring).")
    parser.add_argument("--root", default=".",
                        help="repository root (default: .)")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"check_orphan_headers: no src/ under {args.root}",
              file=sys.stderr)
        return 2

    orphans, includers = find_orphans(args.root)
    for header in orphans:
        users = sorted(includers[header])
        print(f"{header}: included only by "
              f"{', '.join(users) if users else 'nothing'}")
    if orphans:
        print(f"check_orphan_headers: {len(orphans)} header(s) that "
              "nothing outside tests/ reaches; delete them or give "
              "them a real caller", file=sys.stderr)
        return 1
    print("check_orphan_headers: no orphan headers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
