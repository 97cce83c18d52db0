#!/usr/bin/env python3
"""DRX invariant linter: project-specific rules no generic tool knows.

Rules (see docs/STATIC_ANALYSIS.md for the full rationale):

  raw-sync-primitive      std::mutex / std::shared_mutex /
                          std::condition_variable / std::lock_guard /
                          std::unique_lock / std::shared_lock /
                          std::scoped_lock are forbidden everywhere in
                          src/ except util/sync.hpp. All locking goes
                          through the annotated drx::util wrappers so
                          clang -Wthread-safety sees every acquisition.

  unannotated-mutex-member  A util::Mutex / util::SharedMutex member must
                          have at least one DRX_GUARDED_BY/DRX_REQUIRES
                          naming it in the same file; a mutex that guards
                          nothing statically expressible carries a
                          suppression explaining what it serializes.

  hot-path-obs-guard      The obs slow paths (detail::profile_*_slow,
                          detail::push_span) must not be called outside
                          src/obs/: hot paths use the inline wrappers
                          that check the relaxed-atomic enabled flag
                          first, so disabled observability costs one
                          load, not a lock.

  axial-mutation          The axial-vector state (Metadata::mapping) may
                          only be extended through Metadata methods
                          (extend_elements); direct mapping.extend()
                          call sites outside core/metadata.* and the
                          AxialMapping implementation desynchronize the
                          element bounds from the chunk grid.

  cache-lock-alloc        No chunk-buffer allocation
                          (std::make_unique<std::byte[]>) while holding
                          a ChunkCache lock; buffers come from the
                          recycled free list (take_buffer_locked).

  element-granular-copy   The data-plane hot paths (scatter/copy_plan,
                          drx_file, chunk_cache, drxmp, and the dra_like /
                          rowmajor baselines) must not walk elements with
                          for_each_index: element movement goes through
                          the run-coalesced core::CopyPlan
                          (docs/PERFORMANCE.md). Chunk-GRID iteration is
                          fine and is recognized when the call line
                          mentions chunk/covering/zone; anything else
                          (e.g. a row-granular loop) carries a
                          suppression explaining why each visit moves a
                          run, not an element.

  pool-submit-opctx       Every AsyncIoPool submit()/submit_with_future()
                          call site outside src/io/ must propagate the
                          causal context: the call must pass
                          obs::current_op() or an explicit OpContext as
                          its first argument (docs/OBSERVABILITY.md).
                          A deliberately-empty obs::OpContext{} is
                          allowed only with a suppression explaining why
                          no op can be in flight.

Suppressions: `// drx-lint: allow(<rule>) <reason>` on the offending
line, in the contiguous comment block directly above it, or anywhere
earlier in the same function body (the allowance resets at the next
function definition). A reason is mandatory.

Exit codes: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RAW_PRIMITIVES = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"(_any)?|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+|static\s+)*"
    r"(?:util::|drx::util::)(?:Shared)?Mutex\s+(\w+)\s*;"
)
MUTEX_VECTOR_MEMBER = re.compile(
    r"^\s*std::vector<\s*(?:util::|drx::util::)(?:Shared)?Mutex\s*>\s+(\w+)\s*;"
)
OBS_SLOW_CALL = re.compile(r"\b(?:detail::)?(profile_\w+_slow|push_span)\s*\(")
AXIAL_EXTEND = re.compile(r"\bmapping\s*\.\s*extend\s*\(")
CACHE_ALLOC = re.compile(r"std::make_unique<\s*std::byte\[\]\s*>")
# The legacy global lock (mu_) or a shard lock (s.mu, shards_[i].mu);
# leaf locks like seq_mu_ / io_mu_ match neither alternative.
CACHE_LOCK_ACQUIRE = re.compile(
    r"util::MutexLock\s+\w+\s*\(\s*(?:[\w\[\]\.]+\.)?mu_?\s*\)")
POOL_SUBMIT = re.compile(r"(?:\.|->)\s*submit(?:_with_future)?\s*\(")
OPCTX_ARG = re.compile(r"\bcurrent_op\s*\(\s*\)")
OPCTX_EMPTY = re.compile(r"\bOpContext\s*\{")
ELEMENT_WALK = re.compile(r"\bfor_each_index\s*\(")
CHUNK_GRID_HINT = re.compile(r"chunk|covering|zone", re.IGNORECASE)
# Data-plane files where a per-element walk is a coalescing regression.
HOT_COPY_FILES = {
    "src/core/scatter.hpp",
    "src/core/copy_plan.hpp",
    "src/core/copy_plan.cpp",
    "src/core/drx_file.cpp",
    "src/core/chunk_cache.hpp",
    "src/core/chunk_cache.cpp",
    "src/core/drxmp.hpp",
    "src/core/drxmp.cpp",
    "src/baselines/dra_like.cpp",
    "src/baselines/rowmajor_file.cpp",
}
SUPPRESS = re.compile(r"//\s*drx-lint:\s*allow\(([\w-]+)\)\s*(\S.*)?$")
FUNC_DEF = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*::\w+\s*\(|^\w[\w\s:<>,&*]*\s+\w+\s*\(.*\)\s*(?:const\s*)?(?:DRX_\w+\([^)]*\)\s*)*\{?\s*$")


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (keeps quotes)."""
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
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def suppressions_for(lines: list[str], idx: int,
                     active_in_function: dict[str, int]) -> set[str]:
    """Rules suppressed at line index `idx` (same line, previous line, or a
    function-scoped allowance recorded in active_in_function)."""
    allowed = set(active_in_function)
    m = SUPPRESS.search(lines[idx])
    if m:
        allowed.add(m.group(1))
    # Walk up through the contiguous comment block above the line.
    probe = idx - 1
    while probe >= 0 and lines[probe].lstrip().startswith("//"):
        m = SUPPRESS.search(lines[probe])
        if m:
            allowed.add(m.group(1))
        probe -= 1
    return allowed


def check_suppression_reasons(path: Path, lines: list[str],
                              findings: list[Finding]) -> None:
    for i, line in enumerate(lines):
        m = SUPPRESS.search(line)
        if m and not m.group(2):
            findings.append(Finding(
                path, i + 1, "suppression-without-reason",
                f"drx-lint allow({m.group(1)}) needs a reason after the ')'"))


def lint_common(path: Path, rel: str, lines: list[str],
                findings: list[Finding]) -> None:
    """Rules that scan every file: raw primitives, obs slow paths, axial."""
    in_obs = rel.startswith("src/obs/")
    is_sync = rel == "src/util/sync.hpp"
    axial_ok = rel in ("src/core/metadata.cpp", "src/core/metadata.hpp",
                       "src/core/axial_mapping.cpp",
                       "src/core/axial_mapping.hpp")
    active: dict[str, int] = {}
    for i, raw in enumerate(lines):
        if FUNC_DEF.match(raw):
            active.clear()
        m = SUPPRESS.search(raw)
        if m:
            active[m.group(1)] = i
        code = strip_comments_and_strings(raw)
        allowed = suppressions_for(lines, i, active)

        if not is_sync and "raw-sync-primitive" not in allowed:
            pm = RAW_PRIMITIVES.search(code)
            if pm:
                findings.append(Finding(
                    path, i + 1, "raw-sync-primitive",
                    f"{pm.group(0)} outside util/sync.hpp; use the "
                    "annotated drx::util wrappers"))

        if not in_obs and "hot-path-obs-guard" not in allowed:
            om = OBS_SLOW_CALL.search(code)
            if om:
                findings.append(Finding(
                    path, i + 1, "hot-path-obs-guard",
                    f"{om.group(1)}() bypasses the relaxed-atomic enabled "
                    "guard; call the inline obs:: wrapper instead"))

        if not axial_ok and "axial-mutation" not in allowed:
            am = AXIAL_EXTEND.search(code)
            if am:
                findings.append(Finding(
                    path, i + 1, "axial-mutation",
                    "direct mapping.extend(); grow through "
                    "Metadata::extend_elements so element bounds and the "
                    "chunk grid stay consistent"))

        if (not rel.startswith("src/io/")
                and "pool-submit-opctx" not in allowed
                and POOL_SUBMIT.search(code)):
            # The context may sit on the next line when the call wraps.
            snippet = code + (strip_comments_and_strings(lines[i + 1])
                              if i + 1 < len(lines) else "")
            if OPCTX_EMPTY.search(snippet):
                findings.append(Finding(
                    path, i + 1, "pool-submit-opctx",
                    "AsyncIoPool submit with an empty obs::OpContext{} "
                    "severs the causal chain; pass obs::current_op() or "
                    "suppress with the reason no op can be in flight"))
            elif not OPCTX_ARG.search(snippet):
                findings.append(Finding(
                    path, i + 1, "pool-submit-opctx",
                    "AsyncIoPool submit without a causal context; pass "
                    "obs::current_op() as the first argument so stage "
                    "attribution and flow arrows follow the op"))

        if (rel in HOT_COPY_FILES
                and "element-granular-copy" not in allowed
                and ELEMENT_WALK.search(code)
                and not CHUNK_GRID_HINT.search(code)):
            findings.append(Finding(
                path, i + 1, "element-granular-copy",
                "per-element for_each_index walk in a data-plane hot "
                "path; move elements through the run-coalesced "
                "core::CopyPlan (chunk-grid iteration is recognized by "
                "chunk/covering/zone on the call line)"))


def lint_mutex_members(path: Path, lines: list[str],
                       findings: list[Finding]) -> None:
    text = "\n".join(lines)
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        m = MUTEX_MEMBER.match(code) or MUTEX_VECTOR_MEMBER.match(code)
        if not m:
            continue
        if "unannotated-mutex-member" in suppressions_for(lines, i, {}):
            continue
        name = m.group(1)
        guarded = re.search(
            r"DRX_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED)"
            r"\(\s*" + re.escape(name) + r"\s*\)", text)
        if not guarded:
            findings.append(Finding(
                path, i + 1, "unannotated-mutex-member",
                f"mutex member '{name}' has no DRX_GUARDED_BY/DRX_REQUIRES "
                "naming it; annotate what it protects or suppress with the "
                "reason it guards state the annotations cannot express"))


def lint_cache_lock(path: Path, lines: list[str],
                    findings: list[Finding]) -> None:
    """Tracks which ChunkCache locks are held, by brace depth.

    Recognizes the legacy single lock (`mu_`) and per-shard locks
    (`s.mu`, `shards_[i].mu`); the leaf locks (seq_mu_, error_mu_,
    io_mu_) do not match either form and are exempt by construction.
    Blocking I/O and shard-pair nesting under these locks are
    drx_verify's (blocking-under-lock / lock-order passes).
    """
    depth = 0
    held_depths: list[int] = []  # brace depth at each acquisition
    suspended = False  # between lock.unlock() and lock.lock()
    active: dict[str, int] = {}
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        if (re.match(r"^\w[\w:<>,&*\s]*ChunkCache::[\w:]+\s*\(", code)
                or re.match(r"^ChunkCache::[\w:]+\s*\(", code)):
            held_depths.clear()
            suspended = False
            active.clear()
            # *_locked helpers run with their shard's mu held by contract.
            if re.search(r"ChunkCache::[\w:]*\w+_locked\s*\(", code):
                held_depths.append(depth)
        m = SUPPRESS.search(raw)
        if m:
            active[m.group(1)] = i

        if CACHE_LOCK_ACQUIRE.search(code):
            held_depths.append(depth)
            suspended = False
        if re.search(r"\block\.unlock\s*\(\s*\)", code):
            suspended = True
        elif re.search(r"\block\.lock\s*\(\s*\)", code):
            suspended = False

        if (held_depths and not suspended and CACHE_ALLOC.search(code)
                and "cache-lock-alloc" not in suppressions_for(
                    lines, i, active)):
            findings.append(Finding(
                path, i + 1, "cache-lock-alloc",
                "chunk-buffer allocation while holding a cache lock; "
                "use take_buffer_locked()"))

        depth += code.count("{") - code.count("}")
        while held_depths and depth < held_depths[-1]:
            held_depths.pop()


def lint_tree(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    src = root / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        lint_common(path, rel, lines, findings)
        check_suppression_reasons(path, lines, findings)
        if rel != "src/util/sync.hpp":
            lint_mutex_members(path, lines, findings)
        if rel == "src/core/chunk_cache.cpp":
            lint_cache_lock(path, lines, findings)
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_drx.py",
        description="Enforce DRX-specific concurrency and layering "
                    "invariants over src/.",
        epilog="Exit codes: 0 clean, 1 findings, 2 usage error.")
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: the parent of this script's "
             "directory)")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print only the finding count")
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    try:
        findings = lint_tree(root)
    except (FileNotFoundError, UnicodeDecodeError) as err:
        print(f"lint_drx: {err}", file=sys.stderr)
        return 2

    if findings:
        if not args.quiet:
            for f in findings:
                print(f)
        print(f"lint_drx: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print("lint_drx: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
