"""drx_verify — whole-program lock-order / error-discipline / layering /
invariant analyzer for the drx tree.

Usage:
    python3 scripts/drx_verify [--root DIR] [--src-root SUBDIR]
                               [--hierarchy docs/LOCK_ORDER.md]
                               [--frontend auto|ast|source]
                               [--compile-commands build/compile_commands.json]
                               [--ast-cache DIR] [--clang BIN]
                               [--json OUT.json] [--text OUT.txt]
                               [--strict] [-q]

Exit codes:
    0  no unsuppressed findings
    1  findings (or, with --strict, suppressions lacking justification)
    2  usage error
    3  malformed input (compile_commands, AST JSON, hierarchy doc)

Frontends: `ast` consumes clang AST JSON via compile_commands.json
(high fidelity; CI). `source` is the built-in parser (no toolchain
needed; powers the local ctest gate). `auto` picks `ast` when a
compile_commands path is given and clang is runnable, else `source`.
Include edges for the layering pass and the lines the invariant pass
reads are always scanned textually, so both frontends enforce the same
invariants.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from ast_frontend import AstError, AstFrontend
from facts import TUFacts, dedupe
from hierarchy import HierarchyError, load as load_hierarchy
from passes import build_program, run_all
from report import (apply_suppressions, exit_code, render_json, render_text,
                    scan_suppressions)
from source_frontend import SourceFrontend

EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="drx_verify", add_help=True)
    p.add_argument("--root", type=Path, default=Path.cwd(),
                   help="repository root (default: cwd)")
    p.add_argument("--src-root", default="src",
                   help="subtree to analyze, relative to --root")
    p.add_argument("--hierarchy", type=Path, default=None,
                   help="lock hierarchy doc (default: ROOT/docs/LOCK_ORDER.md)")
    p.add_argument("--frontend", choices=("auto", "ast", "source"),
                   default="auto")
    p.add_argument("--compile-commands", type=Path, default=None)
    p.add_argument("--ast-cache", type=Path, default=None,
                   help="directory for cached AST dumps (keyed on "
                        "source hash + command)")
    p.add_argument("--clang", default="",
                   help="clang driver to use for AST dumps (default: the "
                        "compiler from compile_commands)")
    p.add_argument("--json", type=Path, default=None,
                   help="write findings as JSON to this path")
    p.add_argument("--text", type=Path, default=None,
                   help="write the text report to this path")
    p.add_argument("--strict", action="store_true",
                   help="suppressions must carry a written justification")
    p.add_argument("-q", "--quiet", action="store_true")
    try:
        return p.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        raise SystemExit(EXIT_USAGE if e.code not in (0, None) else 0)


def pick_frontend(args: argparse.Namespace) -> str:
    if args.frontend != "auto":
        return args.frontend
    if args.compile_commands is not None and args.compile_commands.exists():
        clang = args.clang or "clang++"
        if shutil.which(clang):
            return "ast"
    return "source"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    hierarchy_path = args.hierarchy or (root / "docs" / "LOCK_ORDER.md")
    src_root = root / args.src_root
    if not src_root.is_dir():
        print(f"drx_verify: no such subtree: {src_root}", file=sys.stderr)
        return EXIT_USAGE

    try:
        hier = load_hierarchy(hierarchy_path)
    except HierarchyError as e:
        print(f"drx_verify: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    source = SourceFrontend(root)
    frontend = pick_frontend(args)
    try:
        if frontend == "ast":
            if args.compile_commands is None:
                print("drx_verify: --frontend ast requires "
                      "--compile-commands", file=sys.stderr)
                return EXIT_USAGE
            ast = AstFrontend(root, args.compile_commands,
                              cache_dir=args.ast_cache, clang=args.clang)
            prefix = str(src_root) + "/"
            rel_prefix = args.src_root.rstrip("/") + "/"

            def in_tree(f: str) -> bool:
                return f.startswith(prefix) or f.startswith(rel_prefix)

            facts = ast.parse_all(in_tree)
            # Include edges and the invariant pass's stripped lines are
            # textual regardless of frontend.
            text = source.parse_tree(args.src_root)
            facts.merge(TUFacts(includes=text.includes, code=text.code))
        else:
            facts = source.parse_tree(args.src_root)
    except AstError as e:
        print(f"drx_verify: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, UnicodeDecodeError) as e:
        print(f"drx_verify: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    facts = dedupe(facts)
    analyzed_files = {fn.file for fn in facts.functions} \
        | {inc.file for inc in facts.includes} | set(facts.code)
    sup = scan_suppressions(root, analyzed_files)

    prog = build_program(facts, hier)
    findings = run_all(prog, sup.module_overrides)
    apply_suppressions(findings, sup)

    text = render_text(findings, args.strict)
    if not args.quiet:
        print(text)
    if args.text is not None:
        args.text.parent.mkdir(parents=True, exist_ok=True)
        args.text.write_text(text + "\n", encoding="utf-8")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(render_json(findings), encoding="utf-8")

    return exit_code(findings, args.strict)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
