"""Renderers for typed specifications: plain source text, annotated text
with a type on every sub-expression, a JSON dump, and C++ type strings.
The JSON and C++ renderers each take one walk of what they render.
"""

from __future__ import annotations

from .errors import RenderError
from .exprs import (
    BINARY_OPS,
    RIGHT_ASSOC,
    AppExpr,
    CaseExpr,
    ConstExpr,
    LambdaExpr,
    LetInExpr,
    ListExpr,
    SetExpr,
    VarExpr,
    children,
)
from .records import Record
from .types import (
    BOTTOM,
    Bottom,
    Constructed,
    Fun,
    Prim,
    Tuple,
    Var,
    format_type,
)

JSON_SCHEMA_VERSION = 1

# Binding levels, loosest first: prefix forms, the binary operators of
# BINARY_OPS, application, atoms.
_PREFIX_LEVEL = 0
_APP_LEVEL = max(BINARY_OPS.values()) + 1
_ATOM_LEVEL = _APP_LEVEL + 1


def format_expr(e, level=0):
    """Render an expression back into parseable source text."""
    text, own = _format(e)
    if own < level:
        return f"({text})"
    return text


def _format(e):
    if isinstance(e, ConstExpr):
        return e.literal, _ATOM_LEVEL
    if isinstance(e, VarExpr):
        return e.name, _ATOM_LEVEL
    if isinstance(e, AppExpr):
        if not e.args:
            return e.head, _ATOM_LEVEL
        if e.head in BINARY_OPS and len(e.args) == 2:
            lvl = BINARY_OPS[e.head]
            right_assoc = e.head in RIGHT_ASSOC
            left = format_expr(e.args[0], lvl + 1 if right_assoc else lvl)
            right = format_expr(e.args[1], lvl if right_assoc else lvl + 1)
            return f"{left} {e.head} {right}", lvl
        args = " ".join(format_expr(a, _ATOM_LEVEL) for a in e.args)
        return f"{e.head} {args}", _APP_LEVEL
    if isinstance(e, LambdaExpr):
        params = " ".join(e.params)
        return f"\\<lambda>{params}. {format_expr(e.body, 0)}", _PREFIX_LEVEL
    if isinstance(e, CaseExpr):
        scrut = format_expr(e.scrutinee, 1)
        branches = " | ".join(
            f"{format_expr(p, 1)} => {format_expr(b, 1)}" for p, b in e.branches
        )
        return f"case {scrut} of {branches}", _PREFIX_LEVEL
    if isinstance(e, LetInExpr):
        pat = format_expr(e.pattern, 1)
        bound = format_expr(e.bound, 1)
        return f"let {pat} = {bound} in {format_expr(e.body, 0)}", _PREFIX_LEVEL
    if isinstance(e, ListExpr):
        return "[" + ", ".join(format_expr(x, 0) for x in e.elems) + "]", _ATOM_LEVEL
    if isinstance(e, SetExpr):
        return "{" + ", ".join(format_expr(x, 0) for x in e.elems) + "}", _ATOM_LEVEL
    raise RenderError(f"cannot render {e!r}")


def annotated_type(t):
    """Render a type with constructed types parenthesized as ``('a )list``."""
    if isinstance(t, Var):
        return format_type(t)
    if isinstance(t, Prim):
        return t.name
    if isinstance(t, Bottom):
        return "<error>"
    if isinstance(t, Fun):
        return "(" + " => ".join(annotated_type(p) for p in t.parts) + ")"
    if isinstance(t, Tuple):
        return f"({annotated_type(t.left)}, {annotated_type(t.right)})"
    if isinstance(t, Constructed):
        if not t.args:
            return t.ctor
        inner = ", ".join(annotated_type(a) for a in t.args)
        return f"({inner} ){t.ctor}"
    raise RenderError(f"cannot render {t!r}")


def _annotate(e, types):
    t = annotated_type(types.get(e.node_id, BOTTOM))
    if isinstance(e, ConstExpr):
        return f"({e.literal} :: {t})"
    if isinstance(e, VarExpr):
        return f"({e.name} :: {t})"
    if isinstance(e, AppExpr):
        if not e.args:
            return f"({e.head} :: {t})"
        if e.head in BINARY_OPS and len(e.args) == 2:
            inner = f"{_annotate(e.args[0], types)} {e.head} {_annotate(e.args[1], types)}"
        else:
            inner = e.head + " " + " ".join(_annotate(a, types) for a in e.args)
        return f"(({inner}) :: {t})"
    if isinstance(e, LambdaExpr):
        params = " ".join(e.params)
        return f"(\\<lambda>{params}.{_annotate(e.body, types)} :: {t})"
    if isinstance(e, ListExpr):
        inner = "[" + ", ".join(_annotate(x, types) for x in e.elems) + "]"
        return f"({inner} :: {t})"
    if isinstance(e, SetExpr):
        inner = "{" + ", ".join(_annotate(x, types) for x in e.elems) + "}"
        return f"({inner} :: {t})"
    if isinstance(e, CaseExpr):
        branches = " | ".join(
            f"{_annotate(p, types)} => {_annotate(b, types)}" for p, b in e.branches
        )
        inner = f"case {_annotate(e.scrutinee, types)} of {branches}"
        return f"(({inner}) :: {t})"
    if isinstance(e, LetInExpr):
        inner = (f"let {_annotate(e.pattern, types)} = {_annotate(e.bound, types)} "
                 f"in {_annotate(e.body, types)}")
        return f"(({inner}) :: {t})"
    raise RenderError(f"cannot annotate {e!r}")


def emit_annotated(typed_spec):
    """The specification with every sub-expression printed as
    ``(expr :: type)``."""
    spec = typed_spec.spec
    lines = [spec.name]
    for patterns, rhs in spec.equations:
        pats = " ".join(_annotate(p, typed_spec.node_types) for p in patterns)
        lhs = f"{spec.name} {pats}".rstrip()
        lines.append(f"{lhs} = {_annotate(rhs, typed_spec.node_types)}")
    return "\n".join(lines)


def _node_json(root, newline, types, out, quote):
    """Append ``root``'s node document to ``out`` as ``json.dumps(doc,
    indent=2)`` writes it at the indentation of ``newline``.  A stack of
    pending nodes and closing strings stands in for recursion."""
    stack = [(root, newline)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, nl = item
        inner, deeper = nl + "  ", nl + "    "
        sep = "," + inner
        out.append(f'{{{inner}"node_id": {e.node_id}{sep}"kind": {quote(e.kind)}')
        if isinstance(e, ConstExpr):
            out.append(f'{sep}"literal": {quote(e.literal)}{sep}"literal_kind": {quote(e.literal_kind)}')
        elif isinstance(e, VarExpr):
            out.append(f'{sep}"name": {quote(e.name)}')
        elif isinstance(e, AppExpr):
            out.append(f'{sep}"head": {quote(e.head)}')
        elif isinstance(e, LambdaExpr):
            params = ("," + deeper).join(map(quote, e.params))
            out.append(f'{sep}"params": [{deeper}{params}{inner}]' if params else f'{sep}"params": []')
        s = e.span
        out.append(f'{sep}"type": {quote(format_type(types.get(e.node_id, BOTTOM)))}{sep}"span": {{'
                   f'{deeper}"line": {s.line},{deeper}"column": {s.column},{deeper}"end_line": '
                   f'{s.end_line},{deeper}"end_column": {s.end_column}{inner}}}{sep}"children": [')
        kids = children(e)
        stack.append((inner if kids else "") + "]" + nl + "}")
        for i in range(len(kids) - 1, -1, -1):
            stack += (kids[i], deeper), ("," if i else "") + deeper


def emit_json(typed_spec):
    """A machine-readable dump of one typed specification, written in one
    walk as ``json.dumps(doc, indent=2)`` would write its document, with
    no dict per node and none of the reference cycles ``json.dumps``
    leaves behind.  Key order is fixed, so re-serialising a parsed
    document reproduces the text byte for byte.  ``json`` is imported
    here, so only the JSON path loads it.
    """
    from json.encoder import encode_basestring_ascii as quote

    spec, types = typed_spec.spec, typed_spec.node_types
    out = [f'{{\n  "schema_version": {JSON_SCHEMA_VERSION},\n  "function": {quote(spec.name)},'
           f'\n  "declared_type": {quote(format_type(spec.declared_type))},\n  "equations": [']
    for i, (patterns, rhs) in enumerate(spec.equations):
        out.append(("\n    }," if i else "") + '\n    {\n      "patterns": [')
        for j, p in enumerate(patterns):
            out.append(",\n        " if j else "\n        ")
            _node_json(p, "\n        ", types, out, quote)
        out.append(("\n      ]" if patterns else "]") + ',\n      "rhs": ')
        _node_json(rhs, "\n      ", types, out, quote)
    out.append(("\n    }\n  ]" if spec.equations else "]") + ',\n  "diagnostics": [')
    for i, d in enumerate(typed_spec.diagnostics):
        out.append(f'{"," if i else ""}\n    {{\n      "node_id": {d.node_id},\n      '
                   f'"kind": {quote(d.kind)},\n      "message": {quote(d.message)}\n    }}')
    out.append("\n  ]\n}" if typed_spec.diagnostics else "]\n}")
    return "".join(out)


def json_array(texts):
    """``json.dumps(docs, indent=2)`` for a list of documents, given the
    ``emit_json`` text of each: one level deeper, every line is indented
    two more spaces."""
    if not texts:
        return "[]"
    return "[\n  " + ",\n  ".join(t.replace("\n", "\n  ") for t in texts) + "\n]"


_DEFAULT_HEADS = {
    "nat": "std::uint64_t",
    "bool": "bool",
    "list": "std::deque<{0}>",
    "option": "std::optional<{0}>",
    "set": "std::set<{0}>",
}


class CppTypeMap(Record):
    """Rendering templates per type head; positional placeholders take
    the rendered type arguments."""

    __slots__ = ("heads",)

    def __init__(self, heads=None):
        self.heads = dict(_DEFAULT_HEADS) if heads is None else heads

    def with_overrides(self, **heads):
        return CppTypeMap({**self.heads, **heads})


def render_cpp_type(t, cpp_map=None, var_names=None):
    """Render a type as a C++ type string.

    Type variables become template parameter names (T1, T2, ...) in
    first-occurrence order, each named as it first renders; pass a shared
    ``var_names`` dict to keep the naming consistent across the types of
    one signature.
    """
    heads = _DEFAULT_HEADS if cpp_map is None else cpp_map.heads
    return _render_cpp(t, heads, {} if var_names is None else var_names)


# Module level rather than a closure inside render_cpp_type: a recursive
# closure refers to itself and leaves a reference cycle behind each call.
def _render_cpp(t, heads, names):
    if isinstance(t, Var):
        return names.setdefault(t, f"T{len(names) + 1}")
    if isinstance(t, Prim):
        if t.name not in heads:
            raise RenderError(f"no C++ mapping for primitive {t.name!r}")
        return heads[t.name]
    if isinstance(t, Fun):
        args = ", ".join(_render_cpp(p, heads, names) for p in t.parts[:-1])
        return f"std::function<{_render_cpp(t.parts[-1], heads, names)}({args})>"
    if isinstance(t, Tuple):
        if "tuple" not in heads:
            raise RenderError("no C++ mapping for tuple types")
        return heads["tuple"].format(_render_cpp(t.left, heads, names),
                                     _render_cpp(t.right, heads, names))
    if isinstance(t, Constructed):
        if t.ctor not in heads:
            raise RenderError(f"no C++ mapping for type constructor {t.ctor!r}")
        return heads[t.ctor].format(*(_render_cpp(a, heads, names) for a in t.args))
    if isinstance(t, Bottom):
        raise RenderError("cannot render the error type")
    raise RenderError(f"cannot render {t!r}")


def render_cpp_signature(spec, cpp_map=None):
    """One C++ declaration line for a function's declared type."""
    names = {}
    params = ", ".join(render_cpp_type(p, cpp_map, names) for p in spec.param_types)
    ret = render_cpp_type(spec.return_type, cpp_map, names)
    return f"{ret} {spec.name}({params});"
