"""Suppression handling and finding reports for drx_verify.

Suppression syntax (in the analyzed C++ sources):

    // drx-verify: allow(<rule>) <justification>

placed on the offending line or the line directly above it. The
justification is mandatory under `--strict` (the CI mode).

A file can also reassign its layering module (used by the seeded
corpus, whose files impersonate src/ modules):

    // drx-verify: module(<name>)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from passes import Finding

SUPPRESS_RE = re.compile(
    r"//\s*drx-verify:\s*allow\(([\w-]+)\)\s*(\S.*)?$")
MODULE_RE = re.compile(r"//\s*drx-verify:\s*module\(([\w-]+)\)")


@dataclass
class Suppressions:
    # (file, line, rule) -> justification text ("" if none given)
    by_site: dict[tuple[str, int, str], str] = field(default_factory=dict)
    module_overrides: dict[str, str] = field(default_factory=dict)


def scan_suppressions(root: Path, files: set[str]) -> Suppressions:
    sup = Suppressions()
    for rel in sorted(files):
        path = root / rel
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for i, line in enumerate(lines):
            line_no = i + 1
            m = MODULE_RE.search(line)
            if m:
                sup.module_overrides[rel] = m.group(1)
            sm = SUPPRESS_RE.search(line)
            if not sm:
                continue
            rule = sm.group(1)
            reason = (sm.group(2) or "").strip()
            # The comment governs its own line and the whole statement
            # that follows (comment-above style): coverage extends line
            # by line until a `;`/`{`/`}` terminator, bounded so a
            # runaway can't blanket a file.
            sup.by_site[(rel, line_no, rule)] = reason
            for j in range(i + 1, min(i + 6, len(lines))):
                sup.by_site[(rel, j + 1, rule)] = reason
                if re.search(r"[;{}]\s*(//.*)?$", lines[j]):
                    break
    return sup


def apply_suppressions(findings: list[Finding],
                       sup: Suppressions) -> list[Finding]:
    for f in findings:
        reason = sup.by_site.get((f.file, f.line, f.rule))
        if reason is not None:
            f.suppressed = True
            f.suppress_reason = reason
    return findings


def render_text(findings: list[Finding], strict: bool) -> str:
    lines = []
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for f in active:
        lines.append(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
        if f.witness:
            lines.append(f"    via: {f.witness}")
    if suppressed:
        lines.append("")
        lines.append(f"suppressed ({len(suppressed)}):")
        for f in suppressed:
            why = f.suppress_reason or "<no justification>"
            lines.append(f"  {f.file}:{f.line}: [{f.rule}] {why}")
    missing = [f for f in suppressed if not f.suppress_reason]
    if strict and missing:
        lines.append("")
        for f in missing:
            lines.append(
                f"{f.file}:{f.line}: [{f.rule}] suppression without a "
                f"written justification (required by --strict)")
    lines.append("")
    lines.append(f"drx_verify: {len(active)} finding(s), "
                 f"{len(suppressed)} suppressed")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    payload = {
        "findings": [
            {
                "rule": f.rule,
                "file": f.file,
                "line": f.line,
                "message": f.message,
                "witness": f.witness,
                "suppressed": f.suppressed,
                "suppress_reason": f.suppress_reason,
            }
            for f in findings
        ],
        "unsuppressed": sum(1 for f in findings if not f.suppressed),
    }
    return json.dumps(payload, indent=2) + "\n"


def exit_code(findings: list[Finding], strict: bool) -> int:
    if any(not f.suppressed for f in findings):
        return 1
    if strict and any(f.suppressed and not f.suppress_reason
                      for f in findings):
        return 1
    return 0
