#!/usr/bin/env python3
"""Repo-specific lint rules the general-purpose toolchain cannot express.

Five rules, each encoding an invariant the rest of the codebase relies on:

  status-discard   Every call to a Status/StatusOr-returning function must
                   consume the result (assign, return, branch, CHECK) or
                   discard it explicitly with a `(void)` cast. A silently
                   dropped Status turns an I/O failure into corrupt-data
                   debugging three layers later.

  raw-thread       `std::thread` may appear only in src/common/sync.{h,cc}:
                   CountedThread is the process's single sanctioned spawn
                   site, which is what keeps executor_stats::ThreadsSpawned
                   honest (tests assert exact counts). Tests are exempt —
                   their threads are harness scaffolding, not product
                   threads.

  raw-mutex        `std::mutex` / `std::condition_variable` / std lock
                   guards may appear only in src/common/sync.{h,cc}. All
                   product locking goes through the annotated Mutex /
                   MutexLock / CondVar wrappers so clang's -Wthread-safety
                   sees every acquisition. Tests are exempt.

  env-registry     Every `getenv("ODYSSEY_*")` call site must read a
                   variable documented in README.md's environment variable
                   registry table, and every row of that table must name a
                   variable some scanned `getenv` call reads. Undocumented
                   knobs rot into load-bearing magic; stale rows document
                   knobs that no longer do anything.

  hot-declared     Every ODYSSEY_HOT annotation on an externally-visible
                   .cc definition must also appear on a declaration in a
                   header. tools/check_hot_paths.py seeds its hot-root set
                   from headers as well as definitions, and callers decide
                   what they may call from the declaration — a .cc-only
                   annotation hides the purity contract from both.
                   Anonymous-namespace and `static` functions are exempt:
                   their definition is the only visible site.

Usage:
  tools/lint_odyssey.py            # lint the repo, exit 1 on findings
  tools/lint_odyssey.py --self-test  # run the rules against the fixtures

The self-test runs every rule against tools/lint_fixtures/ (one bad and one
good fixture per rule) and fails if a rule misses its bad fixture or flags
its good one — so a refactor of this file cannot silently disable a rule.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tools" / "lint_fixtures"

# Directories holding product / benchmark / example sources.
SOURCE_DIRS = ("src", "bench", "examples")
# The one place raw primitives are allowed (the wrapper layer itself).
SYNC_FILES = {"src/common/sync.h", "src/common/sync.cc"}

# ----------------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------------


def repo_files(dirs, suffixes=(".h", ".cc")):
    out = []
    for d in dirs:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                out.append(path)
    return out


def strip_comments(text, keep_strings=False):
    """Removes // and /* */ comments (and, unless keep_strings, string
    literal contents), preserving line structure so reported line numbers
    stay meaningful."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append(text[i:end] if keep_strings else c + c)
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        rel = self.path.relative_to(REPO) if self.path.is_absolute() else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------------
# Rule: status-discard
# ----------------------------------------------------------------------------

# Registry entries whose names are too generic to match call sites reliably
# (they collide with unrelated void functions or std names). Their *other*
# call sites are still covered: the functions they forward to are listed.
AMBIGUOUS_STATUS_NAMES = {"Next", "Open", "Load", "Make", "Fit"}

STATUS_DECL = re.compile(
    r"^\s*(?:static\s+)?(?:Status|StatusOr<[^;=]*>)\s+(\w+)\s*\(", re.M
)


def build_status_registry(header_files):
    """Names of functions declared to return Status/StatusOr in headers."""
    names = set()
    for path in header_files:
        text = strip_comments(path.read_text())
        for m in STATUS_DECL.finditer(text):
            names.add(m.group(1))
    names -= AMBIGUOUS_STATUS_NAMES
    # The factory constructors on Status itself produce a value to *use*,
    # but `return Status::IoError(...)` style is the normal consumption and
    # assignment/return always consumes — bare statements are still wrong.
    return names


# A bare call statement: optional receiver chain, then the call, then `;`
# with nothing consuming the value.
def status_discard_findings(files, registry):
    findings = []
    if not registry:
        return findings
    name_alt = "|".join(sorted(re.escape(n) for n in registry))
    bare_call = re.compile(
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*(" + name_alt + r")\s*\("
    )
    consumers = re.compile(
        r"=|\breturn\b|\bif\b|\bwhile\b|\bfor\b|\bswitch\b|\(void\)|"
        r"ODYSSEY_CHECK|ASSERT_|EXPECT_|CHECK"
    )
    for path in files:
        text = strip_comments(path.read_text())
        lines = text.split("\n")
        for idx, line in enumerate(lines, start=1):
            m = bare_call.match(line)
            if m is None:
                continue
            # Reconstruct the whole statement: extend backward while this
            # line is a continuation (`x =` on the previous line makes the
            # call consumed), then forward to the terminating `;`.
            stmt = line
            k = idx - 1  # lines[k - 1] is the previous line
            while k >= 1:
                prev = lines[k - 1].rstrip()
                if prev == "" or prev.endswith((";", "{", "}")):
                    break
                stmt = prev + " " + stmt
                k -= 1
            j = idx
            while ";" not in lines[j - 1] and j < len(lines):
                stmt += " " + lines[j]
                j += 1
            if consumers.search(stmt):
                continue
            findings.append(
                Finding(
                    "status-discard",
                    path,
                    idx,
                    f"result of Status-returning '{m.group(1)}' is dropped; "
                    "consume it or cast to (void)",
                )
            )
    return findings


# ----------------------------------------------------------------------------
# Rules: raw-thread / raw-mutex
# ----------------------------------------------------------------------------

# `std::this_thread` must not match; `\bstd::thread\b` cannot, because the
# token after `std::` is `this_thread`.
RAW_THREAD = re.compile(r"\bstd::thread\b")
RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)


def token_findings(files, rule, pattern, why):
    findings = []
    for path in files:
        rel = str(path.relative_to(REPO)) if path.is_absolute() else str(path)
        if rel in SYNC_FILES:
            continue
        text = strip_comments(path.read_text())
        for idx, line in enumerate(text.split("\n"), start=1):
            m = pattern.search(line)
            if m is not None:
                findings.append(
                    Finding(rule, path, idx, f"'{m.group(0)}' {why}")
                )
    return findings


# ----------------------------------------------------------------------------
# Rule: hot-declared
# ----------------------------------------------------------------------------

# `ODYSSEY_HOT_ALLOWS` cannot match: `_` is a word character, so \b does
# not fall between HOT and _ALLOWS.
HOT_TOKEN = re.compile(r"\bODYSSEY_HOT\b")
HOT_NAME = re.compile(r"([A-Za-z_~][\w]*(?:::~?[A-Za-z_]\w*)*)\s*\(")


def anonymous_namespace_spans(text):
    spans = []
    for m in re.finditer(r"\bnamespace\s*\{", text):
        depth, i = 1, m.end()
        while i < len(text) and depth:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        spans.append((m.start(), i))
    return spans


def hot_annotated_name(head):
    """First function name in a post-ODYSSEY_HOT head, skipping the other
    annotation macros."""
    for m in HOT_NAME.finditer(head):
        if not m.group(1).startswith("ODYSSEY_"):
            return m.group(1)
    return None


def hot_decl_names(header_files):
    """Unqualified names carrying ODYSSEY_HOT anywhere in a header —
    class-scope declarations, free declarations, or inline definitions."""
    names = set()
    for path in header_files:
        text = strip_comments(path.read_text())
        for m in HOT_TOKEN.finditer(text):
            semi = text.find(";", m.end())
            brace = text.find("{", m.end())
            end = min(x for x in (semi, brace, len(text)) if x >= 0)
            name = hot_annotated_name(text[m.end():end])
            if name is not None:
                names.add(name.split("::")[-1])
    return names


def hot_declared_findings(cc_files, declared):
    findings = []
    for path in cc_files:
        text = strip_comments(path.read_text())
        anon = anonymous_namespace_spans(text)
        for m in HOT_TOKEN.finditer(text):
            semi = text.find(";", m.end())
            brace = text.find("{", m.end())
            if brace < 0 or (0 <= semi < brace):
                continue  # a declaration, not a definition
            name = hot_annotated_name(text[m.end():brace])
            if name is None:
                continue
            if any(s <= m.start() < e for s, e in anon):
                continue
            stmt_start = max(text.rfind(";", 0, m.start()),
                             text.rfind("}", 0, m.start())) + 1
            if re.search(r"\bstatic\b", text[stmt_start:m.start()]):
                continue
            if name.split("::")[-1] in declared:
                continue
            line = text.count("\n", 0, m.start()) + 1
            findings.append(
                Finding(
                    "hot-declared",
                    path,
                    line,
                    f"ODYSSEY_HOT on the definition of '{name}' has no "
                    "ODYSSEY_HOT declaration in any header; annotate the "
                    "declaration (or make the function static / "
                    "anonymous-namespace)",
                )
            )
    return findings


# ----------------------------------------------------------------------------
# Rule: env-registry
# ----------------------------------------------------------------------------

GETENV = re.compile(r"getenv\(\s*\"(ODYSSEY_\w+)\"")
REGISTRY_ROW = re.compile(r"^\|\s*`(ODYSSEY_\w+)`")


def readme_env_registry(readme_path):
    """Maps each variable in the registry table to its row's line number."""
    rows = {}
    if readme_path.is_file():
        lines = readme_path.read_text().splitlines()
        for idx, line in enumerate(lines, start=1):
            m = REGISTRY_ROW.match(line)
            if m is not None:
                rows[m.group(1)] = idx
    return rows


def env_registry_findings(files, readme_path):
    registered = readme_env_registry(readme_path)
    read = set()
    findings = []
    for path in files:
        text = strip_comments(path.read_text(), keep_strings=True)
        for idx, line in enumerate(text.split("\n"), start=1):
            for m in GETENV.finditer(line):
                read.add(m.group(1))
                if m.group(1) not in registered:
                    findings.append(
                        Finding(
                            "env-registry",
                            path,
                            idx,
                            f"getenv(\"{m.group(1)}\") reads a variable "
                            "missing from README.md's environment variable "
                            "registry table",
                        )
                    )
    for name, idx in registered.items():
        if name not in read:
            findings.append(
                Finding(
                    "env-registry",
                    readme_path,
                    idx,
                    f"registry row documents {name}, which no scanned "
                    "getenv call reads",
                )
            )
    return findings


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------


def lint_repo():
    headers = repo_files(["src"], suffixes=(".h",))
    registry = build_status_registry(headers)

    product = repo_files(SOURCE_DIRS)
    product_and_tests = product + repo_files(["tests"])

    findings = []
    findings += status_discard_findings(product_and_tests, registry)
    findings += token_findings(
        product,
        "raw-thread",
        RAW_THREAD,
        "outside src/common/sync.{h,cc}; spawn through CountedThread so "
        "executor_stats::ThreadsSpawned stays honest",
    )
    findings += token_findings(
        product,
        "raw-mutex",
        RAW_MUTEX,
        "outside src/common/sync.{h,cc}; use the annotated Mutex/MutexLock/"
        "CondVar wrappers so -Wthread-safety sees the acquisition",
    )
    findings += env_registry_findings(product_and_tests, REPO / "README.md")
    findings += hot_declared_findings(
        repo_files(["src"], suffixes=(".cc",)), hot_decl_names(headers)
    )
    return findings


def self_test():
    """Each rule must flag its bad fixture and pass its good fixture."""
    failures = []

    def expect(rule, findings, fixture, want):
        hits = [
            f
            for f in findings
            if f.rule == rule and f.path.name == fixture
        ]
        if want and not hits:
            failures.append(f"{rule}: missed {fixture}")
        if not want and hits:
            failures.append(f"{rule}: false positive on {fixture}: {hits[0]}")

    fixture_files = sorted(FIXTURES.glob("*.cc")) + sorted(FIXTURES.glob("*.h"))
    if not fixture_files:
        print(f"self-test: no fixtures under {FIXTURES}", file=sys.stderr)
        return 1

    registry = build_status_registry([FIXTURES / "status_api.h"])
    if "DoIo" not in registry or "LoadThing" not in registry:
        failures.append("status registry failed to parse status_api.h")
    if "Next" in registry:
        failures.append("status registry kept an ambiguous name")

    status = status_discard_findings(fixture_files, registry)
    expect("status-discard", status, "status_bad.cc", want=True)
    expect("status-discard", status, "status_good.cc", want=False)

    threads = token_findings(fixture_files, "raw-thread", RAW_THREAD, "")
    expect("raw-thread", threads, "thread_bad.cc", want=True)
    expect("raw-thread", threads, "thread_good.cc", want=False)

    mutexes = token_findings(fixture_files, "raw-mutex", RAW_MUTEX, "")
    expect("raw-mutex", mutexes, "mutex_bad.cc", want=True)
    expect("raw-mutex", mutexes, "mutex_good.cc", want=False)

    env = env_registry_findings(fixture_files, FIXTURES / "README_registry.md")
    expect("env-registry", env, "env_bad.cc", want=True)
    expect("env-registry", env, "env_good.cc", want=False)
    # The fixture registry carries one row nothing reads: exactly that row,
    # and none of the rows env_good.cc reads, must be flagged.
    stale = [f.message for f in env if f.path.name == "README_registry.md"]
    if not any("ODYSSEY_STALE_KNOB" in m for m in stale):
        failures.append("env-registry: missed the stale registry row")
    if any("ODYSSEY_DOCUMENTED" in m for m in stale):
        failures.append(f"env-registry: false positive on a read row: {stale}")

    declared = hot_decl_names([FIXTURES / "hot_api.h"])
    if "DeclaredHot" not in declared or "MethodHot" not in declared:
        failures.append("hot-declared registry failed to parse hot_api.h")
    hot = hot_declared_findings(
        [FIXTURES / "hot_decl_bad.cc", FIXTURES / "hot_decl_good.cc"],
        declared,
    )
    expect("hot-declared", hot, "hot_decl_bad.cc", want=True)
    expect("hot-declared", hot, "hot_decl_good.cc", want=False)

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print("self-test: all rules behave on their fixtures")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the rules against tools/lint_fixtures/ instead of the repo",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_repo()
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_odyssey: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_odyssey: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
