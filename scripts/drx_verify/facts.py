"""Fact IR shared by the drx_verify frontends.

Both frontends (the clang AST JSON walker and the built-in source
parser) lower a translation unit to the same small vocabulary of facts;
the analysis passes never look at C++ again after this point, except
for the textual invariant pass, which reads the stripped source lines.

The unit of analysis is the *function body*: an ordered list of Events
(lock acquisitions/releases, calls, error-value discards) plus a
summary of the function's signature. Lambdas become synthetic functions
(name `<parent>::<lambda@line>`): their bodies do NOT execute at the
point of definition, so their events never inherit the parent's held
set — instead `passed_to` records the call the lambda was handed to,
and the passes decide the entry context (e.g. a lambda registered via
`register_scrape_provider` runs under the provider mutex; a lambda
submitted to the AsyncIoPool runs on a worker with nothing held).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Event kinds.
ACQUIRE = "acquire"          # data: lock expr text; arg2: scope depth
RELEASE = "release"          # data: lock expr text (explicit .unlock())
REACQUIRE = "reacquire"      # data: lock expr text (explicit .lock())
CALL = "call"                # data: callee text (e.g. "file_->read_chunk")
DISCARD = "discard"          # data: callee text of a (void)-cast call
VALUE_CALL = "value_call"    # data: object text of a .value() call
OK_CHECK = "ok_check"        # data: object text of an is_ok()/bool check
RETURN_INT = "return_int"    # data: the returned literal (e.g. "-1")


@dataclass
class Event:
    kind: str
    data: str
    line: int
    depth: int = 0  # brace depth relative to function body start


@dataclass
class Function:
    name: str                # qualified: "drx::core::ChunkCache::pin"
    file: str                # repo-relative path
    line: int
    return_type: str = ""
    events: list[Event] = field(default_factory=list)
    # Lock exprs from DRX_REQUIRES(...) / DRX_ACQUIRE(...) annotations on
    # the declaration: the caller-side contract.
    requires: list[str] = field(default_factory=list)
    acquires: list[str] = field(default_factory=list)
    # For synthetic lambda functions: the name of the call the lambda
    # was passed to ("" = not an argument / not a lambda).
    passed_to: str = ""
    is_lambda: bool = False


@dataclass
class Include:
    file: str      # repo-relative including file
    target: str    # the quoted include path, e.g. "core/coords.hpp"
    line: int


@dataclass
class TUFacts:
    """Facts extracted from one translation unit (or one source file)."""
    functions: list[Function] = field(default_factory=list)
    includes: list[Include] = field(default_factory=list)
    # Repo-relative path -> comment/string-stripped source lines, for the
    # textual invariant pass (filled by the source frontend whichever
    # frontend supplies the function facts).
    code: dict[str, list[str]] = field(default_factory=dict)

    def merge(self, other: "TUFacts") -> None:
        self.functions.extend(other.functions)
        self.includes.extend(other.includes)
        self.code.update(other.code)


def dedupe(facts: TUFacts) -> TUFacts:
    """Drops duplicate facts (a header parsed through several TUs)."""
    out = TUFacts(code=facts.code)
    seen_fn: set[tuple[str, str, int]] = set()
    for fn in facts.functions:
        key = (fn.name, fn.file, fn.line)
        if key in seen_fn:
            continue
        seen_fn.add(key)
        out.functions.append(fn)
    seen_inc: set[tuple[str, str, int]] = set()
    for inc in facts.includes:
        key = (inc.file, inc.target, inc.line)
        if key in seen_inc:
            continue
        seen_inc.add(key)
        out.includes.append(inc)
    return out
