"""An output checker that does not share code with holtypes.

It reads the ``annotate --emit json`` artifact of a theory and the theory
text, and checks the types on every node that is not ``<error>``:

- an application of a prelude or declared head has argument and result
  types that form an instance of the head's scheme (one-way matching:
  only scheme variables bind);
- the operands of ``=`` and ``<`` have equal types;
- list and set elements have the element type;
- case branch bodies have the case's type;
- each top-level pattern has its declared parameter type and each
  right-hand side has the declared return type;
- a well-typed theory has no ``<error>`` node and no diagnostic;
- the negative theory has exactly one ``mismatch``, at its RHS root.

Types are parsed by a small parser of its own into nested tuples:
``("v", name)`` for variables, ``("c", ctor, args)`` for primitives and
constructed types, ``("f", parts)`` for flat function types,
``("t", left, right)`` for pairs and ``("e",)`` for the error type.
"""

from __future__ import annotations

import copy
import re

ERROR = ("e",)

PRELUDE = {
    "Cons": "'a => 'a list => 'a list",
    "Nil": "'a list",
    "#": "'a => 'a list => 'a list",
    "Some": "'a => 'a option",
    "None": "'a option",
    "EmptySet": "'a set",
    "If": "bool => 'a => 'a => 'a",
    "length": "'a list => nat",
    "map": "('d => 'e) => 'd list => 'e list",
    "concat": "'a list list => 'a list",
    "drop": "nat => 'a list => 'a list",
    "take": "nat => 'a list => 'a list",
    "!": "'a list => nat => 'a",
    "div": "nat => nat => nat",
    "+": "nat => nat => nat",
    "-": "nat => nat => nat",
    "*": "nat => nat => nat",
    "=": "'a => 'a => bool",
    "<": "'a => 'a => bool",
}

_TOKEN = re.compile(r"\s*(<error>|=>|'[\w@]+(?:#\d+)?|\w+|[(),])")


def parse_type(text):
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"cannot read type {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"cannot read type {text!r}")
        pos += 1
        return tok

    def fun():
        parts = [postfix()]
        while peek() == "=>":
            take()
            parts.append(postfix())
        return make_fun(parts)

    def postfix():
        t = primary()
        while peek() is not None and re.fullmatch(r"\w+", peek()):
            args = t[1] if t[0] == "args" else (t,)
            t = ("c", take(), args)
        if t[0] == "args":
            if len(t[1]) != 2:
                raise ValueError(f"cannot read type {text!r}")
            t = ("t",) + t[1]
        return t

    def primary():
        tok = take()
        if tok == "<error>":
            return ERROR
        if tok.startswith("'"):
            return ("v", tok[1:])
        if tok == "(":
            items = [fun()]
            while peek() == ",":
                take()
                items.append(fun())
            take(")")
            return items[0] if len(items) == 1 else ("args", tuple(items))
        if re.fullmatch(r"\w+", tok):
            return ("c", tok, ())
        raise ValueError(f"cannot read type {text!r}")

    t = fun()
    if pos != len(tokens):
        raise ValueError(f"cannot read type {text!r}")
    return t


def make_fun(parts):
    """A flat function type: a final function component is merged in."""
    parts = list(parts)
    while len(parts) > 1 and parts[-1][0] == "f":
        parts[-1:] = parts[-1][1]
    return parts[0] if len(parts) == 1 else ("f", tuple(parts))


def match(pattern, target, binding):
    """One-way matching: bind the pattern's variables so that it equals
    ``target``; the target's own variables are rigid."""
    if pattern[0] == "v":
        bound = binding.setdefault(pattern[1], target)
        return bound == target
    if pattern[0] == "f":
        if target[0] != "f":
            return False
        ps, ts = pattern[1], target[1]
        if len(ts) > len(ps) and ps[-1][0] == "v":
            # A final scheme variable bound to a function type is
            # flattened into the target.
            ts = ts[:len(ps) - 1] + (make_fun(ts[len(ps) - 1:]),)
        return len(ps) == len(ts) and all(match(p, t, binding) for p, t in zip(ps, ts))
    if pattern[0] == "c":
        return (target[0] == "c" and pattern[1] == target[1]
                and len(pattern[2]) == len(target[2])
                and all(match(p, t, binding) for p, t in zip(pattern[2], target[2])))
    if pattern[0] == "t":
        return target[0] == "t" and match(pattern[1], target[1], binding) \
            and match(pattern[2], target[2], binding)
    return pattern == target


def fun_parts(t):
    return t[1] if t[0] == "f" else (t,)


_DATATYPE_TOKEN = re.compile(r'"[^"]*"|\'\w+|\w+|[=|(),]')


def datatype_schemes(source):
    """Constructor schemes of every datatype declaration in ``source``."""
    schemes = {}
    for decl in re.findall(r"datatype\s+(.*)", source):
        head, _, body = decl.partition("=")
        words = _DATATYPE_TOKEN.findall(head)
        params = tuple(("v", w[1:]) for w in words if w.startswith("'"))
        result = ("c", words[-1], params)
        for alt in body.split("|"):
            toks = _DATATYPE_TOKEN.findall(alt)
            args = [parse_type(t.strip('"')) for t in toks[1:]]
            schemes[toks[0]] = make_fun(args + [result])
    return schemes


class Checker:
    def __init__(self, docs, source):
        self.docs = docs
        self.schemes = {name: parse_type(text) for name, text in PRELUDE.items()}
        self.schemes.update(datatype_schemes(source))
        for doc in docs:
            self.schemes[doc["function"]] = parse_type(doc["declared_type"])
        self.problems = []
        self.errors = 0

    def flag(self, doc, node, message):
        self.problems.append(f"{doc['function']} node {node['node_id']}: {message}")

    def run(self):
        for doc in self.docs:
            declared = fun_parts(parse_type(doc["declared_type"]))
            for eq in doc["equations"]:
                bound = set()
                for pat in eq["patterns"]:
                    bound |= pattern_names(pat)
                for pat, param in zip(eq["patterns"], declared):
                    self.node(doc, pat, bound)
                    pat_type = parse_type(pat["type"])
                    if pat_type != ERROR and pat_type != param:
                        self.flag(doc, pat, f"pattern has {pat['type']}, declared parameter "
                                            f"type is {param}")
                self.node(doc, eq["rhs"], bound)
                rhs_type = parse_type(eq["rhs"]["type"])
                ret = make_fun(declared[len(eq["patterns"]):])
                if rhs_type != ERROR and rhs_type != ret:
                    self.flag(doc, eq["rhs"], f"right-hand side has {eq['rhs']['type']}, "
                                              f"declared return type is {ret}")
        return self.problems

    def node(self, doc, node, bound):
        t = parse_type(node["type"])
        kind, kids = node["kind"], node["children"]
        if t == ERROR:
            self.errors += 1
        else:
            self.check(doc, node, t, bound)
        if kind == "LambdaExpr":
            self.node(doc, kids[0], bound | set(node["params"]))
        elif kind == "LetInExpr":
            pattern, value, body = kids
            self.node(doc, pattern, bound)
            self.node(doc, value, bound)
            self.node(doc, body, bound | pattern_names(pattern))
        elif kind == "CaseExpr":
            self.node(doc, kids[0], bound)
            for pat, body in zip(kids[1::2], kids[2::2]):
                self.node(doc, pat, bound)
                self.node(doc, body, bound | pattern_names(pat))
        else:
            for kid in kids:
                self.node(doc, kid, bound)

    def check(self, doc, node, t, bound):
        kind, kids = node["kind"], node["children"]
        kid_types = [parse_type(k["type"]) for k in kids]
        if ERROR in kid_types:
            return
        head = node.get("head") if kind == "AppExpr" else node.get("name")
        if head in self.schemes and head not in bound and kind in ("AppExpr", "VarExpr"):
            scheme = self.schemes[head]
            params = fun_parts(scheme)[:-1] if scheme[0] == "f" else ()
            if len(kid_types) > len(params):
                self.flag(doc, node, f"{head!r} applied to {len(kid_types)} arguments")
                return
            result = make_fun(fun_parts(scheme)[len(kid_types):])
            binding = {}
            if not (all(match(p, a, binding) for p, a in zip(params, kid_types))
                    and match(result, t, binding)):
                shown = ", ".join(k["type"] for k in kids)
                self.flag(doc, node, f"({shown}) -> {node['type']} is not an instance "
                                     f"of {head} :: {PRELUDE.get(head) or scheme}")
            if head in ("=", "<") and kid_types[0] != kid_types[-1]:
                self.flag(doc, node, f"operands of {head!r} differ")
        elif kind in ("ListExpr", "SetExpr"):
            ctor = "list" if kind == "ListExpr" else "set"
            if t[0] != "c" or t[1] != ctor or any(k != t[2][0] for k in kid_types):
                self.flag(doc, node, f"{ctor} elements do not have the element type")
        elif kind == "CaseExpr":
            if any(k != t for k in kid_types[2::2]):
                self.flag(doc, node, "a case branch body differs from the case type")


def pattern_names(node):
    names = {node["name"]} if node["kind"] == "VarExpr" else set()
    for kid in node["children"]:
        names |= pattern_names(kid)
    return names


def check_artifact(docs, source, negative):
    """Every problem the checker finds in one theory's JSON documents."""
    checker = Checker(docs, source)
    problems = checker.run()
    diagnostics = [d for doc in docs for d in doc["diagnostics"]]
    if negative:
        rhs_ids = {eq["rhs"]["node_id"] for doc in docs for eq in doc["equations"]}
        if not (len(diagnostics) == 1 and diagnostics[0]["kind"] == "mismatch"
                and diagnostics[0]["node_id"] in rhs_ids):
            problems.append(f"expected one mismatch at the RHS root, got {diagnostics}")
    else:
        if checker.errors:
            problems.append(f"{checker.errors} <error> node(s) in a well-typed theory")
        if diagnostics:
            problems.append(f"diagnostics in a well-typed theory: {diagnostics}")
    return problems


def _walk(node):
    yield node
    for kid in node["children"]:
        yield from _walk(kid)


def self_test(docs, source):
    """Plant a wrong argument type in a copy of ``docs`` and return True
    when the checker flags it (and passes the unplanted copy)."""
    if check_artifact(docs, source, negative=False):
        return False
    planted = copy.deepcopy(docs)
    for doc in planted:
        for eq in doc["equations"]:
            for node in _walk(eq["rhs"]):
                if node["kind"] == "AppExpr" and node["head"] in PRELUDE and node["children"]:
                    arg = node["children"][0]
                    arg["type"] = "bool" if arg["type"] != "bool" else "nat"
                    return bool(check_artifact(planted, source, negative=False))
    return False
