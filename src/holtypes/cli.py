"""Command-line interface.

    holtypes check <file>      parse and infer, report diagnostics
    holtypes annotate <file>   emit typed artifacts (--emit selects the format)

Exit codes: 0 success, 1 parse/declaration error, 2 type error,
3 usage or rendering error.  Diagnostics go to stderr, artifacts to
stdout or the --output file.
"""

from __future__ import annotations

import argparse
import sys

from .emit import emit_annotated, emit_json, json_array, render_cpp_signature
from .errors import HolTypesError, RenderError
from .infer import infer_theory
from .parser import parse_theory

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_TYPE = 2
EXIT_USAGE = 3

TOO_DEEP = "expression nested too deeply"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _ArgumentParser(prog="holtypes",
                             description="Type inference for HOL-style specification files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "parse and type-check a theory file"),
        ("annotate", "emit typed artifacts for a theory file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="theory file to process")
        p.add_argument("--emit", choices=["annotated", "json", "cpp-types"],
                       default="annotated", help="artifact format for annotate")
        p.add_argument("--trace", action="store_true",
                       help="print one line per inference rule application to stderr")
        p.add_argument("--dump-sigma", action="store_true",
                       help="print the solver registry as 'name :: type' lines")
        p.add_argument("--output", metavar="PATH",
                       help="write the artifact to PATH instead of stdout")
    return parser


# Built once: a parser is a web of reference cycles, and one built per call
# would leave that garbage to the cyclic collector after every call.
_PARSER = _build_parser()


def _print_diagnostics(path, theory, result):
    diagnostics = result.diagnostics
    spans = {e.node_id: e.span for e in theory.all_exprs()} if diagnostics else {}
    for d in diagnostics:
        span = spans.get(d.node_id)
        where = f"{span.line}:{span.column}" if span else "?"
        print(f"{path}:{where}: {d.kind}: {d.message}", file=sys.stderr)
    return len(diagnostics)


def _write_artifact(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"holtypes: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_USAGE

    # Parsing and inference recurse over the expression tree; an input
    # nested beyond the interpreter's stack is reported, not a traceback.
    try:
        theory = parse_theory(source)
        result = infer_theory(theory, trace=args.trace)
    except HolTypesError as err:
        print(f"{args.file}: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print(f"{args.file}: {TOO_DEEP}", file=sys.stderr)
        return EXIT_PARSE

    for line in result.trace or ():
        print(line, file=sys.stderr)

    artifacts = []
    if args.dump_sigma:
        artifacts.append("\n".join(result.registry.dump()))

    n_errors = _print_diagnostics(args.file, theory, result)

    if args.command == "annotate":
        try:
            if args.emit == "annotated":
                artifacts.extend(emit_annotated(ts) for ts in result.typed_specs)
            elif args.emit == "json":
                artifacts.append(json_array([emit_json(ts) for ts in result.typed_specs]))
            else:
                artifacts.append(
                    "\n".join(render_cpp_signature(ts.spec) for ts in result.typed_specs)
                )
        except RenderError as err:
            print(f"{args.file}: render error: {err}", file=sys.stderr)
            return EXIT_USAGE
        except RecursionError:
            print(f"{args.file}: render error: {TOO_DEEP}", file=sys.stderr)
            return EXIT_USAGE
    if artifacts or args.command == "annotate":
        try:
            _write_artifact("\n\n".join(artifacts), args.output)
        except OSError as err:
            print(f"holtypes: cannot write {args.output}: {err}", file=sys.stderr)
            return EXIT_USAGE

    if n_errors:
        print(f"{args.file}: {n_errors} type error(s)", file=sys.stderr)
        return EXIT_TYPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
