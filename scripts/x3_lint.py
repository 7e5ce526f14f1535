#!/usr/bin/env python3
"""Repo lint for project invariants clang-tidy cannot know about.

Rules (see docs/STATIC_ANALYSIS.md for the rationale):

  void-cast-status   No discarding a function call via a void cast
                     ("(void)Foo()" / "static_cast<void>(Foo())"). Status
                     and Result are [[nodiscard]]; a deliberate discard
                     must be spelled `.IgnoreError()` (Status) or
                     testutil::Consume(...) (tests) so it stays grep-able.
  raw-new-delete     No raw `new` / `delete` outside src/storage/ (the
                     only layer that manages raw memory). A `new`
                     immediately wrapped in std::unique_ptr<...>(new ...)
                     is allowed: it is the standard factory idiom for
                     classes with private constructors.
  banned-random      No rand()/srand()/time() in src/: every code path is
                     deterministic and seeded (util/random.h) so results
                     and tests reproduce bit-for-bit.
  bare-assert        No bare assert() in src/: invariants that guard
                     memory accesses (page boundaries, slot indexes) must
                     use X3_CHECK (active in release builds); debug-only
                     sanity checks use X3_DCHECK.
  include-hygiene    Project includes are quoted "dir/file.h" paths from
                     the src/ root: no "../" escapes, no <bits/...>, and
                     headers carry an X3_*_H_ include guard.
  raw-thread         No raw std::thread/std::jthread in src/ outside
                     src/util/thread_pool.*: all engine concurrency goes
                     through ThreadPool/TaskGroup so shutdown, draining
                     and error propagation live in one audited place.
                     (Tests may spawn threads directly to hammer the
                     primitives.)
  raw-stdio          No stdio file I/O (fopen/fread/fwrite/...) and no
                     direct file removal (remove(x.c_str())) in src/
                     outside src/util/env.*: every byte of file I/O goes
                     through the Env seam so fault injection sees it and
                     checksums/retries apply uniformly. The std::remove
                     *algorithm* (erase-remove over iterators) is fine:
                     the removal rule only fires on remove taking a
                     c_str() argument.
  raw-clock          No raw clock reads (steady_clock::now() and friends,
                     Clock::now()) in src/ outside src/util/timer.h and
                     src/util/trace.cc: all timing goes through
                     Timer/MonotonicNow so stage timings and trace
                     timestamps share one time base behind one seam.
  raw-fact-set       No std::set/std::unordered_set of raw integer fact
                     ids in src/cube/: BUC keeps its fact lists as sorted
                     std::vector<uint32_t>, and a view keeps one id array
                     with an offset per cell, contiguous blocks whose
                     bytes the view store can count, not one heap node
                     per id.
  raw-mutex          No bare std::mutex / std::condition_variable /
                     std::lock_guard / std::unique_lock (or their timed/
                     recursive/shared cousins) in src/ outside
                     src/util/thread_annotations.*: every lock is an
                     annotated x3::Mutex so clang -Wthread-safety sees
                     it and the debug lock-order detector ranks it.
                     (Tests may use raw primitives to build fixtures.)
  raw-page-write     No direct page/catalog mutation (WritePage,
                     AllocatePage, FlushAll, RenameFile) in src/xdb/
                     outside the WAL-commit/checkpoint path: every
                     durable state change must be WAL-logged first so
                     crash recovery replays it. The designated sites
                     (Database::Checkpoint, the OpenExisting tail-page
                     repair) carry an explicit allow comment naming why
                     they are exempt.
  server-compute-cube  No direct ComputeCube(...) calls in src/server/:
                     the serving layer answers from the materialized-
                     cuboid cache (CubeViewStore::AnswerFromViews); a
                     single-cuboid miss builds the views it caches
                     (CubeViewStore::Materialize) and answers from
                     them. Only full-cube and cache-bypassing misses
                     compute, on the single designated path in
                     X3Server::RunQuery, where the downgrade policy
                     applies and a full-cube miss then caches the
                     finest view. Any other call site would silently
                     bypass admission accounting, the downgrade policy
                     and caching.
  group-walk         No group enumeration or key-field packing in src/
                     outside the group-walk kernel (src/cube/group_walk.h)
                     and PackGroupKey's home (src/cube/cube_result.cc):
                     neither an odometer advance (`++idx[i] < ...`) nor
                     a hand-rolled big-endian key field
                     (`(v >> 24) & 0xFF`). Every algorithm walks a fact's
                     groups through GroupWalk and encodes key fields
                     with its WriteKeyField/AppendKeyField/ReadKeyField,
                     so a change to the walk or the key format is made
                     once.
  server-raw-log     No ad-hoc logging (printf/puts/perror, std::cout/
                     cerr/clog) in src/server/ outside query_log.*: a
                     serving-layer event either belongs in the
                     structured query log (QueryLog), a metric, or an
                     X3_LOG line (which carries the qid prefix) — text
                     printed anywhere else is invisible to the statusz/
                     JSONL consumers and unattributable to a query.
                     (fprintf is already banned repo-wide by raw-stdio.)

  cell-map-once      No std::unordered_map keyed by GroupKey in src/
                     outside cube/cube_result.h's CellMap alias, the
                     answer type: a node-based map costs a heap node, a
                     key string and a malloc per cell. Cells that the
                     engine keeps or groups go in flat arrays numbered
                     through a CellTable (cube/cell_table.h), as the view
                     store's do.
  metric-once        A metric name literal ("x3_...") appears on one line
                     of src/ only: each metric has one registration
                     site, an accessor every reader and writer calls.
                     A second GetCounter("x3_...") elsewhere would be a
                     second source that can drift (two help strings, or
                     two increments of one event).

A finding can be suppressed with a trailing comment naming the rule:
    some_call();  // x3-lint: allow(raw-new-delete) -- justification
Run from the repo root (or pass --root). Exit status 1 on findings.
"""

import argparse
import os
import re
import sys

CC_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

VOID_CAST_CALL = re.compile(
    r"(?:\(\s*void\s*\)|static_cast<\s*void\s*>\s*\()\s*[A-Za-z_][\w:]*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*\s*\(")
RAW_NEW = re.compile(r"(?<![\w.])new\s+[A-Za-z_][\w:<>, ]*")
UNIQUE_PTR_NEW = re.compile(r"unique_ptr\s*<[^;]*>\s*\(\s*new\b")
RAW_DELETE = re.compile(r"(?<![\w.])delete(?:\s*\[\s*\])?\s+[A-Za-z_(]")
BANNED_RANDOM = re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?(rand|srand|time)\s*\(")
BARE_ASSERT = re.compile(r"(?<![\w:.])assert\s*\(")
PARENT_INCLUDE = re.compile(r'#\s*include\s+"[^"]*\.\.')
BITS_INCLUDE = re.compile(r"#\s*include\s+<bits/")
GUARD = re.compile(r"#ifndef\s+(X3_\w+_H_)")
# Matches std::thread / std::jthread as a type use. std::this_thread
# does not match: after "std::" the literal "thread" fails against
# "this_thread" at its third character.
RAW_THREAD = re.compile(r"std\s*::\s*j?thread\b")
RAW_STDIO = re.compile(
    r"(?<![\w:.>])(?:std\s*::\s*)?"
    r"(fopen|freopen|fdopen|fread|fwrite|fclose|fseeko?|ftello?|fflush|"
    r"tmpfile|fputs|fgets|fprintf|fscanf)\s*\(")
# Distinguishes file removal (remove(p.c_str())) from the std::remove
# algorithm: iterator arguments never involve a c_str() call.
REMOVE_FILE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?remove\s*\((?:[^;()]|\([^()]*\))*c_str\s*\(")
# Raw clock reads: any std::chrono clock's now(), or a Clock::now()
# through a type alias. MonotonicNow/Timer (util/timer.h) are the seam.
RAW_CLOCK = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock|\bClock)\s*::\s*"
    r"now\s*\(")
# Raw locking primitives. x3::Mutex/MutexLock/CondVar
# (util/thread_annotations.h) are the only lock types allowed in src/:
# they carry the capability annotations and the lock-order rank.
# A node-based set of integer ids in cube code is a fact-id list by
# another name; a sorted std::vector<uint32_t> is the one representation.
RAW_FACT_SET = re.compile(
    r"std\s*::\s*(?:unordered_)?set\s*<\s*(?:std\s*::\s*)?"
    r"(?:uint32_t|uint64_t|size_t|unsigned(?:\s+(?:int|long(?:\s+long)?))?)"
    r"\s*>")
RAW_MUTEX = re.compile(
    r"std\s*::\s*(?:(?:timed_|recursive_|recursive_timed_|shared_)?mutex\b|"
    r"condition_variable(?:_any)?\b|"
    r"(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b)")
# The serving layer must answer through the cuboid cache; ComputeCube is
# reserved for the one annotated full-cube / cache-bypass miss path.
SERVER_COMPUTE_CUBE = re.compile(r"(?<![\w:.])ComputeCube\s*\(")
# Ad-hoc logging in the serving layer: serving events go through
# QueryLog, metrics, or X3_LOG (qid-prefixed), never bare stdio streams.
SERVER_RAW_LOG = re.compile(
    r"(?<![\w:.>])(?:std\s*::\s*)?(?:printf|puts|putchar|perror)\s*\(|"
    r"std\s*::\s*(?:cout|cerr|clog)\b")
# Direct page/catalog mutation in src/xdb/ bypasses the WAL: only the
# checkpoint path and the recovery repair path may do it, and each such
# site must carry an allow comment justifying why.
RAW_PAGE_WRITE = re.compile(
    r"\b(?:WritePage|AllocatePage|FlushAll|RenameFile)\s*\(")
# The group-walk kernel's two signatures: an odometer digit advance and
# a hand-rolled big-endian key field.
ODOMETER_ADVANCE = re.compile(r"\+\+\s*\w+\s*\[\s*\w+\s*\]\s*<")
KEY_FIELD_ENCODE = re.compile(r">>\s*24\s*\)\s*&\s*0x[fF][fF]")
GROUP_WALK_HOMES = ("src/cube/group_walk.h", "src/cube/cube_result.cc")
# A node-based cell map: the answer type's alias is its one home.
NODE_CELL_MAP = re.compile(r"std\s*::\s*unordered_map\s*<\s*GroupKey\b")
CELL_MAP_HOME = "src/cube/cube_result.h"
# A metric name literal: the registry's names all start with x3_.
METRIC_LITERAL = re.compile(r'"(x3_\w+)"')
ALLOW = re.compile(r"x3-lint:\s*allow\(([\w-]+)\)")


def strip_comments_and_strings(line):
    """Blanks out string/char literals and // comments (keeps length).

    Good enough for line-based lint rules; block comments are handled by
    the caller via in_block state.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        # metric name -> [(path, lineno)] of its src/ literals (lines
        # carrying allow(metric-once) are not sites)
        self.metric_sites = {}

    def report(self, path, lineno, rule, message, raw_line):
        allow = ALLOW.search(raw_line)
        if allow and allow.group(1) == rule:
            return
        rel = os.path.relpath(path, self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path):
        rel = os.path.relpath(path, self.root).replace(os.sep, "/")
        in_storage = rel.startswith("src/storage/")
        in_src = rel.startswith("src/")
        is_logging_h = rel == "src/util/logging.h"
        is_thread_pool = rel.startswith("src/util/thread_pool.")
        is_env = rel.startswith("src/util/env.")
        is_clock_seam = rel in ("src/util/timer.h", "src/util/trace.cc")
        is_lock_seam = rel.startswith("src/util/thread_annotations.")
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()

        in_block = False
        has_guard = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw
            if in_block:
                end = line.find("*/")
                if end < 0:
                    continue
                line = " " * (end + 2) + line[end + 2:]
                in_block = False
            # Strip block comments opening on this line.
            while True:
                start = line.find("/*")
                if start < 0:
                    break
                end = line.find("*/", start + 2)
                if end < 0:
                    line = line[:start]
                    in_block = True
                    break
                line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
            code = strip_comments_and_strings(line)

            allow = ALLOW.search(raw)
            if in_src and not (allow and allow.group(1) == "metric-once"):
                for m in METRIC_LITERAL.finditer(line):
                    # A literal of code, not of a comment: stripping kept
                    # its quotes in place (comments are cut off).
                    if code[m.start():m.start() + 1] == '"' and \
                            code[m.end() - 1:m.end()] == '"':
                        sites = self.metric_sites.setdefault(m.group(1), [])
                        if not sites or sites[-1] != (path, lineno):
                            sites.append((path, lineno))

            if GUARD.search(code):
                has_guard = True

            if VOID_CAST_CALL.search(code):
                self.report(path, lineno, "void-cast-status",
                            "discarding a call via void cast; handle the "
                            "Status or use .IgnoreError()", raw)
            if in_src and not in_storage:
                stripped = code.strip()
                is_deleted_member = re.search(r"=\s*delete\s*[;,)]", code)
                if RAW_NEW.search(code) and not UNIQUE_PTR_NEW.search(code):
                    self.report(path, lineno, "raw-new-delete",
                                "raw `new` outside src/storage/ (wrap in "
                                "std::make_unique or unique_ptr<T>(new ...))",
                                raw)
                if (RAW_DELETE.search(code) and not is_deleted_member
                        and not stripped.startswith("///")):
                    self.report(path, lineno, "raw-new-delete",
                                "raw `delete` outside src/storage/", raw)
            if in_src and BANNED_RANDOM.search(code):
                self.report(path, lineno, "banned-random",
                            "rand()/srand()/time() in deterministic code; "
                            "use util/random.h with an explicit seed", raw)
            if in_src and not is_thread_pool and RAW_THREAD.search(code):
                self.report(path, lineno, "raw-thread",
                            "raw std::thread outside src/util/thread_pool.*; "
                            "use ThreadPool/TaskGroup", raw)
            if in_src and not is_env:
                if RAW_STDIO.search(code):
                    self.report(path, lineno, "raw-stdio",
                                "stdio file I/O in src/; route it through "
                                "the Env/File seam (util/env.h)", raw)
                if REMOVE_FILE.search(code):
                    self.report(path, lineno, "raw-stdio",
                                "direct file removal in src/; use "
                                "Env::RemoveFile so fault tests observe it",
                                raw)
            if in_src and not is_clock_seam and RAW_CLOCK.search(code):
                self.report(path, lineno, "raw-clock",
                            "raw clock read in src/; use Timer or "
                            "MonotonicNow (util/timer.h)", raw)
            if rel.startswith("src/cube/") and RAW_FACT_SET.search(code):
                self.report(path, lineno, "raw-fact-set",
                            "raw integer set in src/cube/; BUC's fact lists "
                            "are sorted std::vector<uint32_t>, a view's ids "
                            "one array with per-cell offsets", raw)
            if (in_src and rel != CELL_MAP_HOME
                    and NODE_CELL_MAP.search(code)):
                self.report(path, lineno, "cell-map-once",
                            "node-based cell map outside CellMap's alias; "
                            "keep cells in flat arrays numbered by a "
                            "CellTable (cube/cell_table.h)", raw)
            if in_src and not is_lock_seam and RAW_MUTEX.search(code):
                self.report(path, lineno, "raw-mutex",
                            "raw std::mutex/condition_variable/lock in src/; "
                            "use x3::Mutex/MutexLock/CondVar "
                            "(util/thread_annotations.h)", raw)
            if rel.startswith("src/xdb/") and RAW_PAGE_WRITE.search(code):
                self.report(path, lineno, "raw-page-write",
                            "direct page/catalog mutation in src/xdb/; "
                            "durable changes go through the WAL-commit/"
                            "checkpoint path (annotate designated sites)",
                            raw)
            if rel.startswith("src/server/") and SERVER_COMPUTE_CUBE.search(code):
                self.report(path, lineno, "server-compute-cube",
                            "direct ComputeCube in src/server/; serve from "
                            "the cuboid cache and leave compute to the "
                            "annotated full-cube/bypass miss path in "
                            "X3Server::RunQuery",
                            raw)
            if (in_src and rel not in GROUP_WALK_HOMES
                    and (ODOMETER_ADVANCE.search(code)
                         or KEY_FIELD_ENCODE.search(code))):
                self.report(path, lineno, "group-walk",
                            "group enumeration or key-field packing "
                            "outside the kernel; walk groups with "
                            "GroupWalk and encode fields with "
                            "AppendKeyField (cube/group_walk.h)", raw)
            if (rel.startswith("src/server/")
                    and not rel.startswith("src/server/query_log.")
                    and SERVER_RAW_LOG.search(code)):
                self.report(path, lineno, "server-raw-log",
                            "ad-hoc logging in src/server/; use the "
                            "structured QueryLog, a metric, or X3_LOG "
                            "(qid-prefixed)", raw)
            if in_src and not is_logging_h and BARE_ASSERT.search(code):
                self.report(path, lineno, "bare-assert",
                            "bare assert(); use X3_CHECK (always on) or "
                            "X3_DCHECK (debug-only)", raw)
            # Include rules look at the raw line: string stripping blanks
            # out the quoted path the rule needs to see.
            if PARENT_INCLUDE.search(line):
                self.report(path, lineno, "include-hygiene",
                            '"../" in include path; include from the src/ '
                            "root instead", raw)
            if BITS_INCLUDE.search(line):
                self.report(path, lineno, "include-hygiene",
                            "non-portable <bits/...> include", raw)

        if rel.endswith(".h") and in_src and not has_guard:
            self.report(path, 1, "include-hygiene",
                        "header missing X3_*_H_ include guard", "")

    def run(self, dirs):
        for d in dirs:
            top = os.path.join(self.root, d)
            if not os.path.isdir(top):
                continue
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames[:] = sorted(x for x in dirnames if x != "build")
                for name in sorted(filenames):
                    if name.endswith(CC_EXTENSIONS):
                        self.lint_file(os.path.join(dirpath, name))
        self.check_metric_once()
        return self.findings

    def check_metric_once(self):
        for name, sites in sorted(self.metric_sites.items()):
            if len(sites) < 2:
                continue
            first = "%s:%d" % (os.path.relpath(sites[0][0], self.root),
                               sites[0][1])
            for path, lineno in sites[1:]:
                self.report(path, lineno, "metric-once",
                            "metric %s is also named at %s; give it one "
                            "accessor and call that" % (name, first), "")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.getcwd(),
                        help="repository root (default: cwd)")
    args = parser.parse_args()

    linter = Linter(os.path.abspath(args.root))
    findings = linter.run(["src", "tests", "bench", "examples"])
    for finding in findings:
        print(finding)
    if findings:
        print(f"\nx3_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("x3_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
