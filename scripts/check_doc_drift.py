#!/usr/bin/env python3
"""Doc-drift lint: the docs may only name knobs and members that exist.

Every runtime environment variable referenced in src/, bench/, or
examples/ must be documented somewhere under docs/ or README.md, and
every documented knob must still exist in the code — so the docs
cannot silently rot as knobs are added or removed.

Every backticked `Class::member` in docs/*.md and README.md must name
a member still declared in the body of `class Class` or `struct Class`
in a header under src/man (comments stripped, so a member that
survives only in a comment does not count).

Build-time identifiers are excluded on both sides: include guards
(MAN_*_H), CMake options (MAN_WERROR, MAN_SANITIZE*), and CMake list
variables (MAN_*_TESTS, MAN_*_SOURCES). They are configuration of the
*build*, not of a running binary, and the docs discuss them
prose-style where relevant. Every other MAN_ name, the source-level
ISA macros included, must be documented and must exist.

Usage: python3 scripts/check_doc_drift.py [repo_root]
Exit 0 when nothing drifts, 1 with a report when something does.
"""

import pathlib
import re
import sys

TOKEN = re.compile(r"MAN_[A-Z0-9_]+")

CODE_DIRS = ["src", "bench", "examples"]
CODE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".py"}
DOC_SUFFIXES = {".md"}

EXCLUDE = re.compile(
    r"""
    _H$                       # include guards
    | ^MAN_WERROR$            # CMake option
    | ^MAN_SANITIZE           # CMake options (ASan/UBSan, TSan)
    | _TESTS$                 # CMake list variables
    | _SOURCES$               # CMake list variables
    """,
    re.VERBOSE,
)


def harvest(paths, suffixes):
    found = {}
    for root in paths:
        if not root.exists():
            continue
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if path.suffix not in suffixes or not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                continue
            for token in TOKEN.findall(text):
                if EXCLUDE.search(token):
                    continue
                found.setdefault(token, set()).add(str(path))
    return found


# `Class::member` inside a backticked span (a span may wrap a line).
MEMBER_REF = re.compile(r"`([^`]*)`")
CLASS_MEMBER = re.compile(r"(?<![\w:])([A-Z]\w*)::(~?\w+)")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+(\w+)\b[^;{()]*\{")


def class_bodies(headers):
    """Class name -> comment-free bodies of its definitions."""
    bodies = {}
    for path in headers:
        text = COMMENT.sub("", path.read_text(encoding="utf-8",
                                               errors="replace"))
        for head in CLASS_HEAD.finditer(text):
            depth, end = 1, head.end()
            while depth and end < len(text):
                depth += {"{": 1, "}": -1}.get(text[end], 0)
                end += 1
            bodies.setdefault(head.group(1), []).append(text[head.end():end])
    return bodies


def stale_members(repo):
    """(reference, doc) pairs naming no member declared under src/man."""
    bodies = class_bodies(sorted((repo / "src" / "man").rglob("*.h")))
    docs = sorted((repo / "docs").glob("*.md")) + [repo / "README.md"]
    refs, stale = 0, []
    for doc in docs:
        if not doc.exists():
            continue
        text = doc.read_text(encoding="utf-8", errors="replace")
        for span in MEMBER_REF.findall(text):
            for cls, member in CLASS_MEMBER.findall(span):
                refs += 1
                # A declaration, not a use through `.`, `->` or `::`.
                decl = re.compile(r"(?<![\w.>:])" + re.escape(member) +
                                  r"\s*[({;=\[]")
                if not any(decl.search(body) for body in bodies.get(cls, [])):
                    stale.append((f"{cls}::{member}", doc.relative_to(repo)))
    return refs, stale


def main() -> int:
    repo = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent
    )
    code = harvest([repo / d for d in CODE_DIRS], CODE_SUFFIXES)
    docs = harvest([repo / "docs", repo / "README.md"], DOC_SUFFIXES)

    undocumented = sorted(set(code) - set(docs))
    stale = sorted(set(docs) - set(code))

    for name in undocumented:
        where = ", ".join(sorted(code[name])[:3])
        print(f"UNDOCUMENTED: {name} (referenced in {where}) "
              f"has no mention under docs/ or README.md")
    for name in stale:
        where = ", ".join(sorted(docs[name])[:3])
        print(f"STALE DOC: {name} (documented in {where}) "
              f"no longer exists in src/, bench/, or examples/")
    refs, members = stale_members(repo)
    for ref, doc in members:
        print(f"STALE MEMBER: `{ref}` (named in {doc}) is not declared "
              f"in any header under src/man")

    if undocumented or stale or members:
        print(f"\ndoc drift: {len(undocumented)} undocumented, "
              f"{len(stale)} stale (of {len(code)} MAN_* names), "
              f"{len(members)} stale (of {refs} Class::member references)")
        return 1
    print(f"doc drift: OK — {len(code)} MAN_* names, "
          f"all documented and all live; {refs} Class::member "
          f"references, all declared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
