"""The five drx_verify analysis passes over the fact IR.

All passes operate on a whole-program `Program` built from merged
TUFacts. Only the invariant pass reads source text again, as the
comment/string-stripped lines the source frontend keeps.

 lock-order          cross-TU acquisition-order checking against the
                     declared hierarchy (levels are a total order, so a
                     per-acquisition level comparison subsumes cycle
                     detection for resolved domains; an unresolvable
                     lock site is itself a finding, so nothing escapes
                     the order proof by being unnamed).
 blocking-under-lock interprocedural reachability from regions holding
                     a `may block = no` domain to declared blocking
                     operations (pfs I/O, pool flush, raw write(2), ...).
 error-discipline    discarded Status/Result values, `.value()` without
                     an is_ok() dominator, raw negative error returns.
 layering            module DAG enforcement from include edges.
 invariants          project rules no generic tool knows, line by line:
                     raw-sync-primitive, unannotated-mutex-member,
                     hot-path-obs-guard, axial-mutation,
                     cache-lock-alloc, element-granular-copy and
                     pool-submit-opctx (docs/STATIC_ANALYSIS.md §3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from facts import (ACQUIRE, CALL, DISCARD, Function, OK_CHECK, REACQUIRE,
                   RELEASE, RETURN_INT, TUFacts, VALUE_CALL)
from hierarchy import Domain, Hierarchy

MAX_WITNESS_DEPTH = 12

# Method base names that are overwhelmingly std-library (containers,
# smart pointers, atomics, strings): resolving them to same-named
# project functions by base name would wire unrelated subsystems into
# every call graph. Calls to these propagate nothing interprocedurally;
# the named function's own body is still analyzed as an entry point.
GENERIC_BASES = frozenset({
    "get", "reset", "release", "size", "empty", "clear", "begin", "end",
    "data", "find", "count", "at", "front", "back", "top", "pop", "push",
    "insert", "erase", "swap", "resize", "reserve", "append", "substr",
    "length", "str", "c_str", "push_back", "pop_back", "emplace_back",
    "emplace", "load", "store", "exchange", "fetch_add", "fetch_sub",
    "compare_exchange_weak", "compare_exchange_strong", "wait",
    "notify_one", "notify_all", "join", "detach", "min", "max", "abs",
    "move", "forward", "make_unique", "make_shared", "to_string", "fill",
    "copy", "memcpy", "memset", "snprintf", "what", "name", "value",
    "value_or", "is_ok", "status", "code", "message", "ok", "key",
    "contains", "merge", "add", "observe", "reverse", "sort", "id",
})


@dataclass
class Finding:
    rule: str        # a pass name above, or an invariant rule id
    file: str
    line: int
    message: str
    witness: str = ""   # e.g. call chain for interprocedural findings
    suppressed: bool = False
    suppress_reason: str = ""

    def key(self) -> tuple:
        return (self.rule, self.file, self.line, self.message)


@dataclass
class Program:
    hierarchy: Hierarchy
    functions: dict[str, Function] = field(default_factory=dict)
    facts: TUFacts | None = None
    module_overrides: dict[str, str] = field(default_factory=dict)

    # memoized interprocedural summaries, keyed by function name
    _acq: dict[str, frozenset[str]] = field(default_factory=dict)
    _blk: dict[str, tuple[str, str] | None] = field(default_factory=dict)
    _callees: dict[str, list[tuple[int, list[str]]]] = \
        field(default_factory=dict)
    _by_base: dict[str, list[str]] = field(default_factory=dict)


def build_program(facts: TUFacts, hier: Hierarchy) -> Program:
    prog = Program(hierarchy=hier, facts=facts)
    for fn in facts.functions:
        prev = prog.functions.get(fn.name)
        # A definition (has events) wins over a bare declaration; merge
        # the declaration's annotations into the definition.
        if prev is None:
            prog.functions[fn.name] = fn
        elif fn.events and not prev.events:
            fn.requires = sorted(set(fn.requires) | set(prev.requires))
            fn.acquires = sorted(set(fn.acquires) | set(prev.acquires))
            if not fn.return_type:
                fn.return_type = prev.return_type
            prog.functions[fn.name] = fn
        else:
            prev.requires = sorted(set(prev.requires) | set(fn.requires))
            prev.acquires = sorted(set(prev.acquires) | set(fn.acquires))
            if not prev.return_type:
                prev.return_type = fn.return_type
    for name in prog.functions:
        base = name.rsplit("::", 1)[-1]
        prog._by_base.setdefault(base, []).append(name)
    return prog


def _module_level(prog: Program, file: str) -> int | None:
    mod = file_module(file, prog.module_overrides)
    if mod is None:
        return None
    return prog.hierarchy.modules.get(mod)


def _resolve_callees(prog: Program, callee_text: str,
                     caller: Function | None = None) -> list[str]:
    """Maps a callee expression to candidate function names.

    `file_->read_chunk` resolves by base name `read_chunk` to every
    known function ending in `::read_chunk` (conservative fan-out: we
    have no type information in the source frontend). Candidates are
    pruned by the layering DAG: a call can only land in the caller's
    own module or a strictly lower layer — sibling modules cannot even
    include each other's headers, so a same-level cross-module
    candidate is always a base-name collision, not a real callee."""
    base = callee_text.split("->")[-1].split(".")[-1].split("::")[-1]
    if callee_text in prog.functions:
        return [callee_text]
    if base in GENERIC_BASES:
        return []
    if "::" in callee_text and "." not in callee_text \
            and "->" not in callee_text:
        # Qualified callee (`BlockDevice::truncate`, often produced by the
        # frontend's receiver typing): only functions carrying that exact
        # qualification suffix can be the target — never base-name
        # collisions in other classes.
        suffix = "::" + callee_text
        return [n for n in prog._by_base.get(base, [])
                if n == callee_text or n.endswith(suffix)]
    cands = prog._by_base.get(base, [])
    if caller is None or not cands:
        return cands
    caller_mod = file_module(caller.file, prog.module_overrides)
    caller_lvl = _module_level(prog, caller.file)
    if caller_lvl is None:
        return cands
    out = []
    for name in cands:
        cfn = prog.functions[name]
        cand_mod = file_module(cfn.file, prog.module_overrides)
        cand_lvl = _module_level(prog, cfn.file)
        if cand_lvl is None or cand_mod == caller_mod \
                or cand_lvl < caller_lvl:
            out.append(name)
    return out


def _iter_suspended(fn: Function):
    """Yields (event, suspended) where `suspended > 0` means a caller-owned
    lock passed into this `*_locked` helper has been `.unlock()`ed (the
    frontend emits `<param:var>` RELEASE/REACQUIRE for those). Blocking
    work inside the suspension window is, by contract, not performed under
    the caller's lock."""
    suspended = 0
    for ev in fn.events:
        if ev.data.startswith("<param:"):
            if ev.kind == RELEASE:
                suspended += 1
            elif ev.kind == REACQUIRE and suspended > 0:
                suspended -= 1
            continue
        yield ev, suspended


def _direct_acquires(prog: Program, fn: Function) -> set[str]:
    acc: set[str] = set()
    for expr in fn.acquires:
        dom = prog.hierarchy.resolve(fn.file, expr)
        if dom:
            acc.add(dom.name)
    for ev in fn.events:
        if ev.kind == ACQUIRE:
            dom = prog.hierarchy.resolve(fn.file, ev.data)
            if dom:
                acc.add(dom.name)
    return acc


def _call_sites(prog: Program, fn: Function) -> list[tuple[int, list[str]]]:
    """Resolved non-lambda callees per CALL event, with the suspension
    depth at the call site (lambdas are excluded: a registrar only
    stores them). Cached — the fixpoint sweeps this repeatedly."""
    cached = prog._callees.get(fn.name)
    if cached is not None:
        return cached
    out: list[tuple[int, list[str]]] = []
    for ev, suspended in _iter_suspended(fn):
        if ev.kind != CALL:
            continue
        names = [c for c in _resolve_callees(prog, ev.data, fn)
                 if c != fn.name and not prog.functions[c].is_lambda]
        if names:
            out.append((suspended, names))
    prog._callees[fn.name] = out
    return out


def _compute_summaries(prog: Program) -> None:
    """Whole-program fixpoint for the interprocedural summaries:

      acq(f) = domains f may acquire, directly or via any callee
      blk(f) = a (call-chain, reason) witness that f reaches a blocking
               operation, or None

    A fixpoint over the (finite) domain and boolean lattices terminates
    in O(graph depth) sweeps and — unlike memoized recursion with a
    visited-set — costs the same in the presence of call cycles."""
    if prog._acq:
        return
    acq: dict[str, set[str]] = {}
    blk: dict[str, tuple[str, str] | None] = {}
    for name, fn in prog.functions.items():
        acq[name] = _direct_acquires(prog, fn)
        hit = None
        for ev, suspended in _iter_suspended(fn):
            # A blocking op inside a suspension window runs with the
            # caller's lock released — not a blocking path for callers.
            if ev.kind != CALL or suspended:
                continue
            why = prog.hierarchy.blocking_reason(ev.data)
            if why is not None:
                hit = (f"{name} -> {ev.data}", why)
                break
        blk[name] = hit

    changed = True
    while changed:
        changed = False
        for name, fn in prog.functions.items():
            for suspended, callees in _call_sites(prog, fn):
                for callee in callees:
                    extra = acq.get(callee)
                    if extra and not extra <= acq[name]:
                        acq[name] |= extra
                        changed = True
                    if not suspended and blk[name] is None \
                            and blk.get(callee) is not None:
                        chain, why = blk[callee]
                        if chain.count("->") < MAX_WITNESS_DEPTH:
                            blk[name] = (f"{name} -> {chain}", why)
                            changed = True

    prog._acq = {n: frozenset(s) for n, s in acq.items()}
    prog._blk = blk


def transitive_acquires(prog: Program, name: str) -> frozenset[str]:
    _compute_summaries(prog)
    return prog._acq.get(name, frozenset())


def blocking_witness(prog: Program, name: str) -> tuple[str, str] | None:
    _compute_summaries(prog)
    return prog._blk.get(name)


def _entry_domains(prog: Program, fn: Function) -> list[tuple[Domain, int]]:
    """Domains held when `fn` starts executing."""
    held: list[tuple[Domain, int]] = []
    hier = prog.hierarchy
    if fn.is_lambda:
        entry = hier.callback_entry.get(
            fn.passed_to.split("::")[-1]) if fn.passed_to else None
        for dname in entry or []:
            held.append((hier.domains[dname], fn.line))
        return held
    for expr in fn.requires:
        dom = hier.resolve(fn.file, expr)
        if dom:
            held.append((dom, fn.line))
    return held


def check_lock_order(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    hier = prog.hierarchy
    unknown_reported: set[tuple[str, str]] = set()
    reported_pairs: set[tuple[str, str, str]] = set()

    for fn in prog.functions.values():
        held: list[tuple[Domain, int]] = _entry_domains(prog, fn)
        entry_count = len(held)
        for ev in fn.events:
            if ev.kind == ACQUIRE:
                dom = hier.resolve(fn.file, ev.data)
                if dom is None:
                    key = (fn.file, ev.data)
                    if key not in unknown_reported:
                        unknown_reported.add(key)
                        findings.append(Finding(
                            "lock-order", fn.file, ev.line,
                            f"lock site '{ev.data}' matches no domain in "
                            f"docs/LOCK_ORDER.md — declare it before it can "
                            f"be order-checked"))
                    continue
                for hd, _ in held:
                    if hd.name == dom.name:
                        if dom.self_rule == "pair" \
                                and "PairLock" in ev.data:
                            continue
                        if dom.self_rule == "instance":
                            continue
                        findings.append(Finding(
                            "lock-order", fn.file, ev.line,
                            f"same-domain reacquisition of {dom.name} "
                            f"('{ev.data}') while already held in "
                            f"{fn.name} — self-deadlock risk"))
                    elif dom.level >= hd.level:
                        findings.append(Finding(
                            "lock-order", fn.file, ev.line,
                            f"acquires {dom.name} (level {dom.level}) while "
                            f"holding {hd.name} (level {hd.level}) in "
                            f"{fn.name}; hierarchy requires strictly "
                            f"descending levels"))
                held.append((dom, ev.line))
            elif ev.kind == RELEASE:
                dom = hier.resolve(fn.file, ev.data)
                if dom is not None:
                    for i in range(len(held) - 1, entry_count - 1, -1):
                        if held[i][0].name == dom.name:
                            del held[i]
                            break
            elif ev.kind == REACQUIRE:
                dom = hier.resolve(fn.file, ev.data)
                if dom is None:
                    continue
                for hd, _ in held:
                    if hd.name != dom.name and dom.level >= hd.level:
                        findings.append(Finding(
                            "lock-order", fn.file, ev.line,
                            f"re-acquires {dom.name} (level {dom.level}) "
                            f"while holding {hd.name} (level {hd.level}) in "
                            f"{fn.name}"))
                held.append((dom, ev.line))
            elif ev.kind == CALL and held:
                for callee in _resolve_callees(prog, ev.data, fn):
                    cfn = prog.functions.get(callee)
                    if cfn is None or cfn.is_lambda or callee == fn.name:
                        continue
                    for acq_name in sorted(transitive_acquires(prog, callee)):
                        acq = hier.domains[acq_name]
                        for hd, _ in held:
                            # One witness per (function, held, acquired)
                            # pair: candidate fan-out would otherwise
                            # repeat the same ordering violation once
                            # per same-named callee.
                            pair = (fn.name, hd.name, acq.name)
                            if pair in reported_pairs:
                                continue
                            if acq.name == hd.name:
                                if acq.self_rule != "no":
                                    continue
                                reported_pairs.add(pair)
                                findings.append(Finding(
                                    "lock-order", fn.file, ev.line,
                                    f"{fn.name} holds {hd.name} across call "
                                    f"to {callee}, which may reacquire "
                                    f"{acq.name}",
                                    witness=f"{fn.name} -> {callee}"))
                            elif acq.level >= hd.level:
                                reported_pairs.add(pair)
                                findings.append(Finding(
                                    "lock-order", fn.file, ev.line,
                                    f"{fn.name} holds {hd.name} (level "
                                    f"{hd.level}) across call to {callee}, "
                                    f"which may acquire {acq.name} (level "
                                    f"{acq.level})",
                                    witness=f"{fn.name} -> {callee}"))
    return findings


def check_blocking_under_lock(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    hier = prog.hierarchy
    reported: set[tuple[str, str, str]] = set()

    for fn in prog.functions.values():
        held: list[tuple[Domain, int]] = _entry_domains(prog, fn)
        entry_count = len(held)
        for ev in fn.events:
            if ev.kind == ACQUIRE:
                dom = hier.resolve(fn.file, ev.data)
                if dom is not None:
                    held.append((dom, ev.line))
            elif ev.kind == RELEASE:
                dom = hier.resolve(fn.file, ev.data)
                if dom is not None:
                    for i in range(len(held) - 1, entry_count - 1, -1):
                        if held[i][0].name == dom.name:
                            del held[i]
                            break
            elif ev.kind == REACQUIRE:
                dom = hier.resolve(fn.file, ev.data)
                if dom is not None:
                    held.append((dom, ev.line))
            elif ev.kind == CALL:
                strict = [hd for hd, _ in held if not hd.may_block]
                if not strict:
                    continue
                why = hier.blocking_reason(ev.data)
                if why is not None:
                    findings.append(Finding(
                        "blocking-under-lock", fn.file, ev.line,
                        f"{fn.name} calls blocking op '{ev.data}' "
                        f"({why}) while holding {strict[0].name}"))
                    continue
                for callee in _resolve_callees(prog, ev.data, fn):
                    cfn = prog.functions.get(callee)
                    if cfn is None or cfn.is_lambda or callee == fn.name:
                        continue
                    wit = blocking_witness(prog, callee)
                    if wit is not None:
                        chain, why = wit
                        key = (fn.name, strict[0].name, why)
                        if key in reported:
                            break
                        reported.add(key)
                        findings.append(Finding(
                            "blocking-under-lock", fn.file, ev.line,
                            f"{fn.name} holds {strict[0].name} across a "
                            f"path that blocks: {why}",
                            witness=chain))
                        break
    return findings


def _is_statusy(return_type: str) -> bool:
    rt = return_type.replace("drx::util::", "").replace("util::", "")
    return rt.startswith("Status") or rt.startswith("Result<")


def check_error_discipline(prog: Program) -> list[Finding]:
    findings: list[Finding] = []

    for fn in prog.functions.values():
        checked: set[str] = set()
        for ev in fn.events:
            if ev.kind == OK_CHECK:
                checked.add(ev.data)
            elif ev.kind == DISCARD:
                for callee in _resolve_callees(prog, ev.data, fn):
                    cfn = prog.functions.get(callee)
                    if cfn is not None and _is_statusy(cfn.return_type):
                        findings.append(Finding(
                            "error-discipline", fn.file, ev.line,
                            f"{fn.name} discards {cfn.return_type} from "
                            f"{callee} via (void) cast — handle it or use "
                            f"DRX_IGNORE_STATUS(expr, reason)"))
                        break
            elif ev.kind == VALUE_CALL:
                obj = ev.data
                if obj.startswith("call:"):
                    for callee in _resolve_callees(prog, obj[5:], fn):
                        cfn = prog.functions.get(callee)
                        if cfn is not None and \
                                _is_statusy(cfn.return_type):
                            findings.append(Finding(
                                "error-discipline", fn.file, ev.line,
                                f"{fn.name} calls .value() on the "
                                f"temporary Result returned by {callee}; "
                                f"no is_ok() check is possible — bind it "
                                f"first or use DRX_ASSIGN_OR_RETURN"))
                            break
                elif obj == "<temporary>":
                    findings.append(Finding(
                        "error-discipline", fn.file, ev.line,
                        f"{fn.name} calls .value() on a temporary Result "
                        f"with no possible is_ok() check"))
                elif obj not in checked:
                    findings.append(Finding(
                        "error-discipline", fn.file, ev.line,
                        f"{fn.name} calls .value() on '{obj}' without a "
                        f"prior is_ok()/boolean check dominating it"))
            elif ev.kind == RETURN_INT:
                rt = fn.return_type
                if rt in ("int", "long", "ssize_t", "std::int64_t",
                          "std::int32_t", "int64_t", "int32_t"):
                    findings.append(Finding(
                        "error-discipline", fn.file, ev.line,
                        f"{fn.name} returns raw error code {ev.data}; "
                        f"return Status/Result instead"))
    return findings


def file_module(path: str, overrides: dict[str, str]) -> str | None:
    if path in overrides:
        return overrides[path]
    parts = path.split("/")
    if parts[0] == "src" and len(parts) > 2:
        return parts[1]
    if parts[0] in ("tools", "bench", "tests"):
        return "top"
    return None


def check_layering(prog: Program,
                   module_overrides: dict[str, str]) -> list[Finding]:
    findings: list[Finding] = []
    modules = prog.hierarchy.modules
    assert prog.facts is not None
    for inc in prog.facts.includes:
        src_mod = file_module(inc.file, module_overrides)
        tgt_mod = inc.target.split("/")[0] if "/" in inc.target else None
        if src_mod is None or tgt_mod is None:
            continue
        if src_mod not in modules or tgt_mod not in modules:
            continue
        if src_mod == tgt_mod:
            continue
        if modules[tgt_mod] >= modules[src_mod]:
            findings.append(Finding(
                "layering", inc.file, inc.line,
                f"module '{src_mod}' (layer {modules[src_mod]}) includes "
                f"'{inc.target}' from module '{tgt_mod}' (layer "
                f"{modules[tgt_mod]}); includes must point strictly down "
                f"the module DAG"))
    return findings


# Invariant rules. Paths are repo-relative; each rule's scope or
# exemption is named by the path sets below, so a file elsewhere (the
# seeded corpus under tests/) is checked by every unscoped rule.
SYNC_HEADER = "src/util/sync.hpp"
RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"(_any)?|lock_guard|unique_lock|shared_lock|scoped_lock)\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+)*"
    r"(?:std::vector<\s*(?:drx::)?util::(?:Shared)?Mutex\s*>"
    r"|(?:drx::)?util::(?:Shared)?Mutex)\s+(\w+)\s*;")
OBS_SLOW_RE = re.compile(r"\b(?:detail::)?(push_span)\s*\(")
AXIAL_EXTEND_RE = re.compile(r"\bmapping\s*\.\s*extend\s*\(")
AXIAL_FILES = {"src/core/metadata.cpp", "src/core/metadata.hpp",
               "src/core/axial_mapping.cpp", "src/core/axial_mapping.hpp"}
SUBMIT_RE = re.compile(r"(?:\.|->)\s*submit(?:_with_future)?\s*\(")
ELEMENT_WALK_RE = re.compile(r"\bfor_each_index\s*\(")
CHUNK_GRID_RE = re.compile(r"chunk|covering|zone", re.IGNORECASE)
# Data-plane files where a per-element walk is a coalescing regression.
HOT_COPY_FILES = {
    "src/core/scatter.hpp", "src/core/copy_plan.hpp",
    "src/core/copy_plan.cpp", "src/core/drx_file.cpp",
    "src/core/chunk_cache.hpp", "src/core/chunk_cache.cpp",
    "src/core/drxmp.hpp", "src/core/drxmp.cpp",
    "src/baselines/dra_like.cpp", "src/baselines/rowmajor_file.cpp",
}
CACHE_FILE = "src/core/chunk_cache.cpp"
CACHE_FN_RE = re.compile(
    r"^(?:\w[\w:<>,&*\[\]\s]*)?ChunkCache::([\w:]+)\s*\(")
# The legacy global lock (mu_) or a shard lock (s.mu, shards_[i].mu);
# leaf locks like seq_mu_ / io_mu_ match neither alternative.
CACHE_LOCK_RE = re.compile(
    r"util::MutexLock\s+\w+\s*\(\s*(?:[\w\[\]\.]+\.)?mu_?\s*\)")
CACHE_ALLOC_RE = re.compile(r"std::make_unique<\s*std::byte\[\]\s*>")


def _cache_lock_alloc(path: str, code: list[str]) -> list[Finding]:
    """cache-lock-alloc: tracks the held ChunkCache locks by brace depth.

    A `*_locked` helper starts with its shard lock held by contract;
    `lock.unlock()` suspends the lock until `lock.lock()`. Blocking I/O
    and shard-pair nesting under these locks belong to the
    blocking-under-lock and lock-order passes."""
    out: list[Finding] = []
    depth = 0
    held: list[int] = []  # brace depth at each acquisition
    suspended = False
    for i, line in enumerate(code):
        fm = CACHE_FN_RE.match(line)
        if fm:
            held = [depth] if fm.group(1).endswith("_locked") else []
            suspended = False
        if CACHE_LOCK_RE.search(line):
            held.append(depth)
            suspended = False
        if re.search(r"\block\.unlock\s*\(\s*\)", line):
            suspended = True
        elif re.search(r"\block\.lock\s*\(\s*\)", line):
            suspended = False
        if held and not suspended and CACHE_ALLOC_RE.search(line):
            out.append(Finding(
                "cache-lock-alloc", path, i + 1,
                "chunk-buffer allocation while holding a cache lock; "
                "use take_buffer_locked()"))
        depth += line.count("{") - line.count("}")
        while held and depth < held[-1]:
            held.pop()
    return out


def check_invariants(code: dict[str, list[str]]) -> list[Finding]:
    findings: list[Finding] = []
    for path, lines in sorted(code.items()):
        text = "\n".join(lines)

        def hit(i: int, rule: str, message: str) -> None:
            findings.append(Finding(rule, path, i + 1, message))

        for i, line in enumerate(lines):
            if path != SYNC_HEADER:
                m = RAW_SYNC_RE.search(line)
                if m:
                    hit(i, "raw-sync-primitive",
                        f"{m.group(0)} outside util/sync.hpp; use the "
                        "annotated drx::util wrappers")
                m = MUTEX_MEMBER_RE.match(line)
                if m and not re.search(
                        r"DRX_(?:PT_)?(?:GUARDED_BY|REQUIRES(?:_SHARED)?)"
                        r"\(\s*" + re.escape(m.group(1)) + r"\s*\)", text):
                    hit(i, "unannotated-mutex-member",
                        f"mutex member '{m.group(1)}' has no "
                        "DRX_GUARDED_BY/DRX_REQUIRES naming it; annotate "
                        "what it protects or suppress with the reason it "
                        "guards state the annotations cannot express")
            if not path.startswith("src/obs/"):
                m = OBS_SLOW_RE.search(line)
                if m:
                    hit(i, "hot-path-obs-guard",
                        f"{m.group(1)}() bypasses the relaxed-atomic "
                        "enabled guard; call the inline obs:: wrapper "
                        "instead")
            if path not in AXIAL_FILES and AXIAL_EXTEND_RE.search(line):
                hit(i, "axial-mutation",
                    "direct mapping.extend(); grow through "
                    "Metadata::extend_elements so element bounds and the "
                    "chunk grid stay consistent")
            if not path.startswith("src/io/") and SUBMIT_RE.search(line):
                # The context may sit on the next line when the call wraps.
                call = line + (lines[i + 1] if i + 1 < len(lines) else "")
                if re.search(r"\bOpContext\s*\{", call):
                    hit(i, "pool-submit-opctx",
                        "AsyncIoPool submit with an empty obs::OpContext{} "
                        "severs the causal chain; pass obs::current_op() "
                        "or suppress with the reason no op can be in "
                        "flight")
                elif not re.search(r"\bcurrent_op\s*\(\s*\)", call):
                    hit(i, "pool-submit-opctx",
                        "AsyncIoPool submit without a causal context; pass "
                        "obs::current_op() as the first argument so stage "
                        "attribution and flow arrows follow the op")
            if (path in HOT_COPY_FILES and ELEMENT_WALK_RE.search(line)
                    and not CHUNK_GRID_RE.search(line)):
                hit(i, "element-granular-copy",
                    "per-element for_each_index walk in a data-plane hot "
                    "path; move elements through the run-coalesced "
                    "core::CopyPlan (chunk-grid iteration is recognized by "
                    "chunk/covering/zone on the call line)")
        if path == CACHE_FILE:
            findings += _cache_lock_alloc(path, lines)
    return findings


def run_all(prog: Program,
            module_overrides: dict[str, str]) -> list[Finding]:
    prog.module_overrides = module_overrides
    findings: list[Finding] = []
    findings += check_lock_order(prog)
    findings += check_blocking_under_lock(prog)
    findings += check_error_discipline(prog)
    findings += check_layering(prog, module_overrides)
    findings += check_invariants(prog.facts.code)
    # Deterministic order + dedupe (several TUs can re-derive a header
    # finding).
    seen = set()
    out = []
    for f in sorted(findings, key=lambda f: (f.file, f.line, f.rule,
                                             f.message)):
        if f.key() in seen:
            continue
        seen.add(f.key())
        out.append(f)
    return out
