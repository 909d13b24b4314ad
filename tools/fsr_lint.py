#!/usr/bin/env python3
"""Project concurrency lint: enforce the sync.h discipline over the tree.

The Clang thread-safety gate (-Werror=thread-safety) only fires on Clang
builds and only on what the annotations express. This lint closes the
remaining holes with cheap textual rules that hold on every toolchain:

  R1 raw-primitive   No std::mutex / std::recursive_mutex / std::shared_mutex
                     / std::condition_variable* / std::lock_guard /
                     std::unique_lock / std::scoped_lock / std::thread outside
                     the sanctioned wrapper (src/common/sync.h).
                     std::thread::id and std::this_thread remain allowed:
                     identity and sleeping are not synchronization.
  R2 no-detach       No .detach() anywhere: every thread joins (sync.h's
                     Thread doesn't even expose detach; this catches raw
                     escapes in tests/benches too).
  R3 no-block-in-io  Functions annotated FSR_REQUIRES(<role>) must not call
                     blocking primitives (sleep_for, sleep_until, usleep,
                     post_wait, gateway_read_frame, Thread::join): they run
                     on the event thread, where blocking stalls the whole
                     replica. Applies to inline bodies and to out-of-line
                     Class::method definitions whose declaration is annotated.
  R4 guarded-by-ref  Every FSR_GUARDED_BY(x) / FSR_PT_GUARDED_BY(x) argument
                     must name a Mutex / RecursiveMutex / ThreadRole member,
                     or the role() of a Reactor member, declared in the same
                     file (catches typo'd or stale
                     capability names that Clang would silently accept as a
                     new expression).

Suppression: append `// fsr-lint: allow(R<n>) <reason>` to the offending
line (or the line above). A reason is mandatory.

Usage:
  tools/fsr_lint.py [--root DIR] [--compile-commands PATH] [--report PATH]

Exit status 0 if clean, 1 if any violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# Files allowed to spell the raw primitives: the wrapper itself.
SANCTIONED = {os.path.join("src", "common", "sync.h")}

# Directories scanned (relative to --root).
SCAN_DIRS = ["src", "tests", "bench", "examples"]
EXTS = {".h", ".hpp", ".cpp", ".cc"}

RAW_PRIMITIVE = re.compile(
    r"std::(?:recursive_mutex|shared_mutex|mutex|condition_variable_any|"
    r"condition_variable|lock_guard|unique_lock|scoped_lock|thread)\b"
    r"(?!::id)"
)
# std::this_thread::... is fine; the RAW_PRIMITIVE regex can't hit it
# (different token), but std::thread::id needs the explicit carve-out above.
DETACH = re.compile(r"\.\s*detach\s*\(")
BLOCKING = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|post_wait|gateway_read_frame)\s*\(|"
    r"\.\s*join\s*\("
)
# A capability is a member (`role_`) or a reactor's role (`reactor_.role()`).
GUARDED_BY = re.compile(
    r"FSR_(?:PT_)?GUARDED_BY\(\s*([A-Za-z_][A-Za-z0-9_]*)(?:\.role\(\))?\s*\)"
)
CAPABILITY_DECL = re.compile(
    r"\b(?:Mutex|RecursiveMutex|ThreadRole|Reactor)\s+([A-Za-z_][A-Za-z0-9_]*)\s*[;{=]"
)
REQUIRES_ROLE = re.compile(r"FSR_REQUIRES\(\s*([A-Za-z_][A-Za-z0-9_:.]*(?:\(\))?)\s*\)")
ALLOW = re.compile(r"//\s*fsr-lint:\s*allow\((R[1-4])\)\s*(\S.*)?$")

LINE_COMMENT = re.compile(r"//.*$")
STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_noise(line: str) -> str:
    """Remove string literals and line comments so rules match code only."""
    return LINE_COMMENT.sub("", STRING_LIT.sub('""', line))


def allowed(lines: list[str], idx: int, rule: str) -> bool:
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW.search(lines[probe])
            if m and m.group(1) == rule and m.group(2):
                return True
    return False


class Linter:
    def __init__(self, root: str):
        self.root = root
        self.violations: list[dict] = []

    def report(self, rel: str, lineno: int, rule: str, msg: str) -> None:
        self.violations.append(
            {"file": rel, "line": lineno, "rule": rule, "message": msg}
        )

    # -- R1/R2: token scans ------------------------------------------------
    def scan_tokens(self, rel: str, lines: list[str]) -> None:
        sanctioned = rel in SANCTIONED
        for i, raw in enumerate(lines):
            code = strip_noise(raw)
            if not sanctioned:
                m = RAW_PRIMITIVE.search(code)
                if m and not allowed(lines, i, "R1"):
                    self.report(
                        rel, i + 1, "R1",
                        f"raw {m.group(0)} outside src/common/sync.h; "
                        "use the fsr wrapper (Mutex/CondVar/Thread/...)",
                    )
            m = DETACH.search(code)
            if m and not allowed(lines, i, "R2"):
                self.report(
                    rel, i + 1, "R2",
                    "thread .detach() is banned: every thread must join",
                )

    # -- R3: blocking calls inside role-annotated bodies -------------------
    def collect_annotated(self, rel: str, text: str) -> set[str]:
        """Method names declared with FSR_REQUIRES on a role capability."""
        names: set[str] = set()
        decl = re.compile(
            r"([A-Za-z_][A-Za-z0-9_]*)\s*\([^;{}]*?\)\s*"
            r"(?:const\s*)?(?:override\s*)?FSR_REQUIRES\(\s*"
            r"([A-Za-z_][A-Za-z0-9_:.]*(?:\(\))?)\s*\)",
            re.S,
        )
        for m in decl.finditer(text):
            cap = m.group(2)
            if "role" in cap.lower():
                names.add(m.group(1))
        return names

    def body_span(self, text: str, open_brace: int) -> int:
        depth = 0
        for j in range(open_brace, len(text)):
            c = text[j]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return j
        return len(text) - 1

    def scan_blocking(self, rel: str, text: str, lines: list[str],
                      annotated: set[str]) -> None:
        # Out-of-line definitions Class::name(...) { ... } for annotated
        # names, plus inline definitions carrying the annotation directly.
        defn = re.compile(
            r"(?:[A-Za-z_][A-Za-z0-9_]*\s*::\s*)?(%s)\s*\([^;{}]*?\)\s*"
            r"(?:const\s*)?(?:override\s*)?"
            r"(?:FSR_REQUIRES\((?:[^()]|\(\))*\)\s*)?\{"
            % "|".join(sorted(re.escape(n) for n in annotated))
        ) if annotated else None
        if defn is None:
            return
        for m in defn.finditer(text):
            open_brace = m.end() - 1
            close = self.body_span(text, open_brace)
            body = text[open_brace:close]
            base_line = text.count("\n", 0, open_brace)
            for off, body_line in enumerate(body.split("\n")):
                code = strip_noise(body_line)
                b = BLOCKING.search(code)
                if b:
                    lineno = base_line + off
                    if not allowed(lines, lineno, "R3"):
                        self.report(
                            rel, lineno + 1, "R3",
                            f"blocking call {b.group(0).strip()!r} inside "
                            f"role-annotated '{m.group(1)}' (runs on the "
                            "event thread; it must never block)",
                        )

    # -- R4: GUARDED_BY names a declared capability ------------------------
    def scan_guarded(self, rel: str, lines: list[str]) -> None:
        declared: set[str] = set()
        for raw in lines:
            for m in CAPABILITY_DECL.finditer(strip_noise(raw)):
                declared.add(m.group(1))
        for i, raw in enumerate(lines):
            code = strip_noise(raw)
            if code.lstrip().startswith("#"):
                continue  # macro definitions in sync.h spell FSR_GUARDED_BY(x)
            for m in GUARDED_BY.finditer(code):
                name = m.group(1)
                if name not in declared and not allowed(lines, i, "R4"):
                    self.report(
                        rel, i + 1, "R4",
                        f"FSR_GUARDED_BY({name}) does not name a Mutex/"
                        "RecursiveMutex/ThreadRole/Reactor declared in this file",
                    )

    def lint_file(self, path: str) -> None:
        rel = os.path.relpath(path, self.root)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            self.report(rel, 0, "IO", f"unreadable: {e}")
            return
        lines = text.split("\n")
        self.scan_tokens(rel, lines)
        if rel.startswith("src" + os.sep):
            annotated = self.collect_annotated(rel, text)
            if annotated:
                self.scan_blocking(rel, text, lines, annotated)
                # Out-of-line bodies live in the sibling .cpp; lint it too
                # under the header's annotation set.
                if rel.endswith(".h"):
                    sib = path[:-2] + ".cpp"
                    if os.path.exists(sib):
                        with open(sib, encoding="utf-8",
                                  errors="replace") as f:
                            sib_text = f.read()
                        self.scan_blocking(os.path.relpath(sib, self.root),
                                           sib_text, sib_text.split("\n"),
                                           annotated)
            self.scan_guarded(rel, lines)


def gather_files(root: str, compile_commands: str | None) -> list[str]:
    files: set[str] = set()
    if compile_commands:
        try:
            with open(compile_commands, encoding="utf-8") as f:
                for entry in json.load(f):
                    p = os.path.normpath(
                        os.path.join(entry.get("directory", root),
                                     entry["file"]))
                    if os.path.splitext(p)[1] in EXTS and \
                            os.path.commonpath([root, p]) == root:
                        files.add(p)
        except (OSError, ValueError, KeyError) as e:
            print(f"fsr_lint: bad compile db {compile_commands}: {e}",
                  file=sys.stderr)
            sys.exit(2)
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        for dirpath, _, names in os.walk(top):
            for n in names:
                if os.path.splitext(n)[1] in EXTS:
                    files.add(os.path.join(dirpath, n))
    return sorted(files)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to widen the file list")
    ap.add_argument("--report", default=None,
                    help="write violations as JSON to this path")
    args = ap.parse_args()

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(__file__), ".."))
    linter = Linter(root)
    files = gather_files(root, args.compile_commands)
    for path in files:
        linter.lint_file(path)

    # Deduplicate (a .cpp can be visited directly and via its header's R3
    # pass) and sort for stable output.
    seen: dict = {}
    for v in linter.violations:
        seen[(v["file"], v["line"], v["rule"], v["message"])] = v
    violations = sorted(seen.values(),
                        key=lambda v: (v["file"], v["line"], v["rule"]))

    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump({"files_scanned": len(files),
                       "violations": violations}, f, indent=2)
            f.write("\n")

    for v in violations:
        print(f"{v['file']}:{v['line']}: [{v['rule']}] {v['message']}")
    if violations:
        print(f"fsr_lint: {len(violations)} violation(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"fsr_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
