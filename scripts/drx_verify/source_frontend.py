"""Built-in source frontend: lowers DRX-style C++ to the fact IR.

A deliberately small recognizer for the project's house style (clang
AST JSON is the high-fidelity frontend — `ast_frontend.py` — this one
exists so the analyzer runs anywhere python3 runs, e.g. the tier-1
ctest gate on a GCC-only box, and doubles as a cross-check).

It is a line-oriented scanner with a scope stack, not a C++ parser:
 - namespaces / classes / functions / lambdas are tracked by matching
   their opening lines and counting braces;
 - events inside function bodies (lock acquisitions through the
   util/sync.hpp wrappers, calls, `(void)` discards, `.value()` /
   `.is_ok()`, raw-int error returns) are matched per line on
   comment/string-stripped text;
 - lambdas become synthetic functions that are NOT executed at their
   definition point (see facts.py); the name of the call they are
   passed to is recorded for entry-context decisions.

Known blind spots (shared with the passes' design assumptions):
overloads collapse to one name, templates are scanned as text, and a
signature the scanner cannot match yields a function body attributed to
the enclosing scope. The seeded corpus in tests/verify/corpus pins the
recognizable shapes.
"""

from __future__ import annotations

import re
from pathlib import Path

from facts import (ACQUIRE, CALL, DISCARD, Event, Function, Include, OK_CHECK,
                   REACQUIRE, RELEASE, RETURN_INT, TUFacts, VALUE_CALL)

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "do", "else", "case", "default", "alignof", "decltype",
    "static_assert", "assert", "defined", "throw", "co_return",
}

NAMESPACE_RE = re.compile(r"^\s*(?:inline\s+)?namespace\s+([\w:]+)?\s*\{")
CLASS_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?"
    r"(?:class|struct|union|enum(?:\s+class|\s+struct)?)\s+"
    r"(?:DRX_\w+(?:\([^)]*\))?\s+)*"
    r"([A-Za-z_]\w*)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
LOCK_CTOR_RE = re.compile(
    r"\b(?:util::|drx::util::)?"
    r"(MutexLock|ReaderMutexLock|WriterMutexLock)\s+(\w+)\s*\(([^;]*?)\)\s*;")
PAIR_LOCK_RE = re.compile(r"\bShardPairLock\s+(\w+)\s*\(")
UNLOCK_RE = re.compile(r"\b(\w+)\.unlock\s*\(\s*\)")
RELOCK_RE = re.compile(r"\b(\w+)\.lock\s*\(\s*\)")
CALL_RE = re.compile(
    r"(?<![\w.])((?:[A-Za-z_][\w]*(?:::[A-Za-z_]\w*)*(?:\[[^\[\]]*\])?"
    r"(?:\s*(?:->|\.)\s*[A-Za-z_]\w*(?:\[[^\[\]]*\])?)*))\s*\(")
# Local/member declarations worth remembering for receiver typing:
# `BlockDevice& device = ...` and the element type of container-of-T
# declarations like `std::vector<std::unique_ptr<BlockDevice>> datafiles;`.
DECL_TYPE_RE = re.compile(
    r"\b(?:const\s+)?([A-Z]\w*)(?:\s*<[^;<>()]*>)?\s*[&*]?\s+(\w+)\s*[=({;]")
TMPL_ELEM_RE = re.compile(
    r"<\s*(?:const\s+)?([A-Z]\w*)\s*[&*]?\s*>\s*>*\s*(\w+)\s*[;={(]")
DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*([A-Za-z_][\w:]*(?:\s*(?:->|\.)\s*[A-Za-z_]\w*)*)\s*\(")
IGNORE_STATUS_RE = re.compile(r"\bDRX_IGNORE_STATUS\s*\(")
VALUE_MOVE_RE = re.compile(r"std::move\s*\(\s*([A-Za-z_]\w*)\s*\)\s*\.\s*value\s*\(\)")
VALUE_RE = re.compile(r"\b([A-Za-z_][\w.\->]*?)\s*\.\s*value\s*\(\)")
CALL_VALUE_RE = re.compile(
    r"([A-Za-z_][\w:.\->]*)\s*\([^()]*\)\s*\.\s*value\s*\(\s*\)")
IS_OK_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*is_ok\s*\(\)")
STATUS_TOUCH_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*status\s*\(\s*\)")
BOOL_CHECK_RE = re.compile(r"\b(?:if|while)\s*\(\s*!?\s*([A-Za-z_]\w*)\s*[\)&|]")
ASSIGN_OR_RETURN_RE = re.compile(r"\bDRX_ASSIGN_OR_RETURN\s*\(")
RETURN_IF_ERROR_RE = re.compile(r"\bDRX_RETURN_IF_ERROR\s*\(\s*(\w[\w:.\->]*)")
RETURN_NEG_RE = re.compile(r"\breturn\s+(-\d+)\s*;")
REQUIRES_RE = re.compile(r"\bDRX_REQUIRES(?:_SHARED)?\s*\(([^)]*)\)")
ACQUIRE_ANN_RE = re.compile(r"\bDRX_ACQUIRE(?:_SHARED)?\s*\(([^)]*)\)")
LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:noexcept\s*)?"
    r"(?:->\s*[\w:<>&*\s]+?)?\s*\{")
SIGNATURE_RE = re.compile(
    r"(?:[\w:<>,&*~\[\]\s]+?\s)??"                 # return type (optional: ctors)
    r"((?:[A-Za-z_]\w*::)*(?:~?[A-Za-z_]\w*|operator[^\s(]{1,3}))\s*"
    r"\(.*\)\s*"                                    # parameter list
    r"(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?(?:final\s*)?"
    r"(?:DRX_\w+(?:\([^{}]*?\))?\s*)*"              # attribute macros
    r"(?:->\s*[\w:<>,&*\s]+?)?\s*"                  # trailing return
    r"(?::\s*[^{};]*)?$")                           # ctor init list
STATUS_DECL_RE = re.compile(
    r"(?:virtual\s+|static\s+|inline\s+|\[\[nodiscard\]\]\s*)*"
    r"(Status|Result\s*<[^;{()]*>)\s+([A-Za-z_]\w*)\s*\(")


def strip_strings(line: str) -> str:
    """Empties string/char literal contents (keeps the quotes)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
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


def strip_comments(lines: list[str]) -> list[str]:
    """Strips // and /* */ comments and string contents, line-preserving."""
    out = []
    in_block = False
    for raw in lines:
        line = strip_strings(raw)
        res = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            res.append(line[i])
            i += 1
        out.append("".join(res))
    return out


class _Scope:
    def __init__(self, kind: str, name: str, depth: int,
                 fn: Function | None = None):
        self.kind = kind      # namespace | class | function | block
        self.name = name
        self.depth = depth    # brace depth BEFORE the opening brace
        self.fn = fn
        self.locks: dict[str, str] = {}  # lock var -> lock expr (functions)
        # RAII locks still alive in this function: (var, expr, acq_depth).
        # When the brace depth drops below acq_depth the guard has been
        # destroyed and a RELEASE event is synthesized.
        self.active: list[tuple[str, str, int]] = []


def _passed_to(prefix: str) -> str:
    """Name of the innermost still-open call preceding a lambda start."""
    stack: list[str] = []
    for m in re.finditer(r"([A-Za-z_][\w:.\->]*)?\s*(\()|(\))", prefix):
        if m.group(3):
            if stack:
                stack.pop()
        else:
            name = m.group(1) or ""
            stack.append(name.split("->")[-1].split(".")[-1].split("::")[-1])
    return stack[-1] if stack else ""


class SourceFrontend:
    def __init__(self, root: Path):
        self.root = root

    def parse_file(self, path: Path) -> TUFacts:
        rel = path.relative_to(self.root).as_posix()
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        lines = strip_comments(raw_lines)
        facts = TUFacts(code={rel: lines})
        # File-local receiver typing: `device.truncate(...)` with
        # `BlockDevice& device` in this file resolves to the exact
        # `BlockDevice::truncate` instead of fanning out to every
        # function whose base name is `truncate`.
        self.var_types: dict[str, str] = {}
        for code in lines:
            for tm in TMPL_ELEM_RE.finditer(code):
                self.var_types[tm.group(2)] = tm.group(1)
            for dm in DECL_TYPE_RE.finditer(code):
                self.var_types[dm.group(2)] = dm.group(1)
        for i, raw in enumerate(raw_lines):
            m = INCLUDE_RE.match(raw)
            if m:
                facts.includes.append(Include(rel, m.group(1), i + 1))

        depth = 0
        scopes: list[_Scope] = []
        pending: list[tuple[int, str]] = []  # (line_no, text) signature buffer
        lambda_counter = 0

        def context_name() -> str:
            parts = [s.name for s in scopes
                     if s.kind in ("namespace", "class") and s.name]
            return "::".join(parts)

        def current_fn() -> Function | None:
            for s in reversed(scopes):
                if s.kind == "function":
                    return s.fn
            return None

        def fn_scope() -> _Scope | None:
            for s in reversed(scopes):
                if s.kind == "function":
                    return s
            return None

        def close_dead_locks(line_no: int) -> None:
            """Synthesizes RELEASE events for RAII guards whose scope
            just ended (brace depth dropped below acquisition depth)."""
            for s in scopes:
                if s.kind != "function" or s.fn is None:
                    continue
                while s.active and s.active[-1][2] > depth:
                    _, expr, _ = s.active.pop()
                    s.fn.events.append(Event(RELEASE, expr, line_no, depth))

        for i, code in enumerate(lines):
            line_no = i + 1
            stripped = code.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                pending.clear()
                continue

            fn = current_fn()
            if fn is None:
                # ---- outside any function: look for definitions ----------
                nm = NAMESPACE_RE.match(code)
                if nm:
                    scopes.append(_Scope("namespace", nm.group(1) or "", depth))
                    depth += code.count("{") - code.count("}")
                    pending.clear()
                    continue
                cm = CLASS_RE.match(code)
                if cm and not re.search(r";\s*$", stripped):
                    # A class head may take several lines to reach its '{'.
                    if "{" in code:
                        scopes.append(_Scope("class", cm.group(1), depth))
                        depth += code.count("{") - code.count("}")
                        pending.clear()
                        continue
                    pending.append((line_no, stripped))
                    continue
                if pending and pending[-1][1].startswith(("class ", "struct ",
                                                          "enum ", "union ")):
                    if "{" in code:
                        head = pending[-1][1]
                        hm = CLASS_RE.match(head)
                        scopes.append(_Scope(
                            "class", hm.group(1) if hm else "", depth))
                        depth += code.count("{") - code.count("}")
                        pending.clear()
                        continue
                    if ";" in code:
                        pending.clear()
                        continue
                    pending.append((line_no, stripped))
                    continue

                # Declaration of a Status/Result-returning function (no
                # body): still worth indexing for error discipline.
                sd = STATUS_DECL_RE.search(code)
                if sd and "{" not in code:
                    facts.functions.append(Function(
                        name=(context_name() + "::" + sd.group(2)).lstrip(":"),
                        file=rel, line=line_no,
                        return_type=re.sub(r"\s+", "", sd.group(1))))

                pending.append((line_no, stripped))
                joined = " ".join(t for _, t in pending)
                if "{" in code:
                    sig = joined[:joined.index("{")] if "{" in joined else joined
                    sm = SIGNATURE_RE.match(sig.strip())
                    opened = code.count("{") - code.count("}")
                    if sm and "(" in sig:
                        qual = sm.group(1)
                        name = (context_name() + "::" + qual).lstrip(":")
                        ret = sig.strip()[:sig.strip().rfind(qual)].strip()
                        ret = re.sub(r"\[\[nodiscard\]\]|virtual|static|inline"
                                     r"|explicit|constexpr|friend", "", ret)
                        f = Function(name=name, file=rel,
                                     line=pending[0][0],
                                     return_type=re.sub(r"\s+", "", ret))
                        for rm in REQUIRES_RE.finditer(sig):
                            f.requires.extend(
                                a.strip() for a in rm.group(1).split(","))
                        for am in ACQUIRE_ANN_RE.finditer(sig):
                            f.acquires.extend(
                                a.strip() for a in am.group(1).split(","))
                        facts.functions.append(f)
                        if opened > 0:
                            scopes.append(_Scope("function", name, depth, f))
                            # Process the remainder after '{' for events.
                            rest = code[code.index("{") + 1:]
                            self._scan_events(rest, line_no, f,
                                              scopes[-1], depth + 1)
                        depth += opened
                        # Brace-balanced one-liner: pop immediately below.
                        while scopes and scopes[-1].kind == "function" \
                                and depth <= scopes[-1].depth:
                            scopes.pop()
                        pending.clear()
                        continue
                    # Unrecognized brace opener: anonymous block.
                    scopes.append(_Scope("block", "", depth))
                    depth += opened
                    pending.clear()
                    continue
                if ";" in code or stripped.endswith(("}", ":")):
                    pending.clear()
                depth += code.count("{") - code.count("}")
            else:
                # ---- inside a function body: extract events --------------
                scope = fn_scope()
                # Lambda start? Push a synthetic function first so its
                # events do not pollute the parent.
                lm = LAMBDA_RE.search(code)
                if lm:
                    lambda_counter += 1
                    lname = f"{fn.name}::<lambda@{line_no}>"
                    lf = Function(name=lname, file=rel, line=line_no,
                                  is_lambda=True,
                                  passed_to=_passed_to(code[:lm.start()]))
                    facts.functions.append(lf)
                    pre = code[:lm.start()]
                    self._scan_events(pre, line_no, fn, scope, depth)
                    lscope = _Scope("function", lname,
                                    depth + pre.count("{") - pre.count("}"),
                                    lf)
                    scopes.append(lscope)
                    rest = code[lm.end():]
                    self._scan_events(rest, line_no, lf, lscope, depth + 1)
                    depth += code.count("{") - code.count("}")
                    close_dead_locks(line_no)
                    while scopes and scopes[-1].kind == "function" \
                            and depth <= scopes[-1].depth:
                        scopes.pop()
                    continue
                self._scan_events(code, line_no, fn, scope, depth)
                depth += code.count("{") - code.count("}")

            # Close any scopes whose brace has ended.
            close_dead_locks(line_no)
            while scopes and depth <= scopes[-1].depth:
                scopes.pop()

        return facts

    def _scan_events(self, code: str, line_no: int, fn: Function,
                     scope: _Scope | None, depth: int) -> None:
        if fn is None or not code.strip():
            return
        ev = fn.events

        for m in LOCK_CTOR_RE.finditer(code):
            expr = re.sub(r"\s+", "", m.group(3))
            if scope is not None:
                scope.locks[m.group(2)] = expr
                scope.active.append((m.group(2), expr, depth))
            ev.append(Event(ACQUIRE, expr, line_no, depth))
        for m in PAIR_LOCK_RE.finditer(code):
            if scope is not None:
                scope.active.append((m.group(1), "ShardPairLock", depth))
            ev.append(Event(ACQUIRE, "ShardPairLock", line_no, depth))
        for m in UNLOCK_RE.finditer(code):
            var = m.group(1)
            if scope is not None and var in scope.locks:
                ev.append(Event(RELEASE, scope.locks[var], line_no, depth))
            else:
                # `.unlock()` on a guard this function never constructed:
                # a caller-owned lock passed by reference (the `*_locked`
                # contract). Model it as *suspending* the caller's lock —
                # blocking calls inside the suspension window do not make
                # this function a blocking path for its caller.
                ev.append(Event(RELEASE, f"<param:{var}>", line_no, depth))
        for m in RELOCK_RE.finditer(code):
            var = m.group(1)
            if scope is not None and var in scope.locks:
                ev.append(Event(REACQUIRE, scope.locks[var], line_no, depth))
            elif any(e.kind == RELEASE and e.data == f"<param:{var}>"
                     for e in ev):
                # Re-lock ends the suspension. The prior-RELEASE guard
                # keeps std::weak_ptr::lock() and friends out.
                ev.append(Event(REACQUIRE, f"<param:{var}>", line_no, depth))

        if IGNORE_STATUS_RE.search(code):
            pass  # sanctioned discard: no event
        else:
            for m in DISCARD_RE.finditer(code):
                ev.append(Event(DISCARD,
                                re.sub(r"\s+", "", m.group(1)), line_no,
                                depth))

        # OK-checks are scanned BEFORE .value() unwraps so the idiomatic
        # same-line short-circuit `!r.is_ok() || !r.value()...` dominates.
        for m in IS_OK_RE.finditer(code):
            ev.append(Event(OK_CHECK, m.group(1), line_no, depth))
        for m in STATUS_TOUCH_RE.finditer(code):
            # Reading `x.status()` (e.g. DRX_RETURN_IF_ERROR(x.status()))
            # is an explicit error inspection of x.
            ev.append(Event(OK_CHECK, m.group(1), line_no, depth))
        for m in BOOL_CHECK_RE.finditer(code):
            ev.append(Event(OK_CHECK, m.group(1), line_no, depth))
        if ASSIGN_OR_RETURN_RE.search(code) or RETURN_IF_ERROR_RE.search(code):
            # The macros check before unwrapping; the variable they bind is
            # checked by construction.
            am = re.search(r"DRX_ASSIGN_OR_RETURN\s*\(\s*(?:auto\s+|const\s+"
                           r"|[\w:<>&\s]*?\s)?(\w+)\s*,", code)
            if am:
                ev.append(Event(OK_CHECK, am.group(1), line_no, depth))

        for m in CALL_RE.finditer(code):
            callee = re.sub(r"\s+", "", m.group(1))
            base = callee.split("->")[-1].split(".")[-1].split("::")[-1]
            if base in KEYWORDS or base.startswith("DRX_"):
                continue
            ev.append(Event(CALL, self._typed_callee(callee, base),
                            line_no, depth))

        for m in VALUE_MOVE_RE.finditer(code):
            ev.append(Event(VALUE_CALL, m.group(1), line_no, depth))
        rem = VALUE_MOVE_RE.sub("", code)
        # `foo(...).value()`: no is_ok() check is possible on a
        # temporary; record the producing call so the pass can decide
        # whether it even returns a Result.
        for m in CALL_VALUE_RE.finditer(rem):
            ev.append(Event(VALUE_CALL,
                            "call:" + re.sub(r"\s+", "", m.group(1)),
                            line_no, depth))
        rem = CALL_VALUE_RE.sub("", rem)
        for m in VALUE_RE.finditer(rem):
            obj = re.sub(r"\s+", "", m.group(1))
            if obj and not obj.endswith((".", ">")):
                ev.append(Event(VALUE_CALL, obj.split("->")[-1].split(".")[-1],
                                line_no, depth))

        for m in RETURN_NEG_RE.finditer(code):
            ev.append(Event(RETURN_INT, m.group(1), line_no, depth))

    def _typed_callee(self, callee: str, base: str) -> str:
        """Rewrites `device.truncate` to `BlockDevice::truncate` when the
        receiver's type was declared in this file — an exact, fan-out-free
        resolution the passes prefer over base-name candidates."""
        segs = re.split(r"->|\.", re.sub(r"\[[^\[\]]*\]", "", callee))
        if len(segs) >= 2:
            recv = segs[-2].split("::")[-1]
            typ = self.var_types.get(recv)
            if typ:
                return f"{typ}::{base}"
        return callee

    def parse_tree(self, subdir: str = "src") -> TUFacts:
        facts = TUFacts()
        base = self.root / subdir
        if not base.is_dir():
            raise FileNotFoundError(f"no {subdir}/ under {self.root}")
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
                continue
            facts.merge(self.parse_file(path))
        return facts
