"""Hypothesis strategies for random one-equation theories over the prelude.

Both strategies draw ``fun f :: "P1 => P2 => R" where "f x y = RHS"``:
two parameter types and a result type from small fixed menus, and a
right-hand side of depth at most 3 built from the prelude's functions
and constructors (fully or partially applied, prefix or infix), ``f``
itself, lambdas, ``let``, ``case`` over lists and options, and list and
set literals.  Every compound subexpression is parenthesised, so the
text never depends on operator precedence.

``theories()`` draws each subexpression without regard to types.  Bound
names are drawn in scope, so the theories parse, but almost all are
ill-typed (about 13 in 500 type cleanly): they exercise failure paths.
``typed_theories()`` draws each subexpression for the type its position
needs, so every theory is well-typed by construction.
"""

from hypothesis import strategies as st

PARAM_TYPES = (
    "nat", "bool", "'a", "'b", "nat list", "'a list", "'a list list",
    "nat set", "'a option", "nat option", "(nat => nat)", "('a => 'b)",
)
# A function-typed result would add arrows the two patterns do not match.
RESULT_TYPES = PARAM_TYPES[:-2]

LEAVES = ("0", "1", "True", "False", "[]", "{}", "None")
# Prefix heads with their full arity; any 1..arity arguments are applied.
HEADS = (
    ("Cons", 2), ("Some", 1), ("If", 3), ("length", 1), ("map", 2),
    ("concat", 1), ("drop", 2), ("take", 2), ("f", 2),
)
INFIX = ("+", "-", "*", "div", "=", "<", "#", "!")
FORMS = ("app", "infix", "lambda", "let", "case", "list", "set")


@st.composite
def rhs_exprs(draw, depth=3, scope=("x", "y")):
    """An expression of nesting depth at most ``depth`` whose local names
    come from ``scope``."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(scope + LEAVES))

    def sub(inner=scope):
        return draw(rhs_exprs(depth - 1, inner))

    form = draw(st.sampled_from(FORMS))
    if form == "app":
        head, arity = draw(st.sampled_from(HEADS))
        args = [sub() for _ in range(draw(st.integers(1, arity)))]
        return f"({head} {' '.join(args)})"
    if form == "infix":
        return f"({sub()} {draw(st.sampled_from(INFIX))} {sub()})"
    v = f"z{depth}"
    if form == "lambda":
        return f"(%{v}. {sub(scope + (v,))})"
    if form == "let":
        return f"(let {v} = {sub()} in {sub(scope + (v,))})"
    if form == "case":
        scrutinee = sub()
        if draw(st.booleans()):
            h, t = f"h{depth}", f"t{depth}"
            return f"(case {scrutinee} of [] => {sub()} | ({h} # {t}) => {sub(scope + (h, t))})"
        return f"(case {scrutinee} of None => {sub()} | Some {v} => {sub(scope + (v,))})"
    elems = ", ".join(sub() for _ in range(draw(st.integers(1, 3))))
    return f"[{elems}]" if form == "list" else f"{{{elems}}}"


@st.composite
def theories(draw):
    """The source text of one random single-equation theory."""
    p1, p2 = draw(st.sampled_from(PARAM_TYPES)), draw(st.sampled_from(PARAM_TYPES))
    result = draw(st.sampled_from(RESULT_TYPES))
    return f'fun f :: "{p1} => {p2} => {result}" where "f x y = {draw(rhs_exprs())}"'


# -- well-typed theories ----------------------------------------------------
#
# Types are tuples: ("nat",), ("bool",), ("'a",), (ctor, arg) for ctor in
# list, set and option, and ("fun", param, result).

NAT, BOOL, A = ("nat",), ("bool",), ("'a",)


def list_t(t):
    return ("list", t)


def option_t(t):
    return ("option", t)


def fun_t(p, r):
    return ("fun", p, r)


def show(t, atom=False):
    """A type in the theory syntax; ``atom`` parenthesises a function."""
    if len(t) == 1:
        return t[0]
    if t[0] == "fun":
        text = f"{show(t[1], True)} => {show(t[2])}"
        return f"({text})" if atom else text
    return f"{show(t[1], True)} {t[0]}"


# Types of let-bound values, case scrutinee elements and hidden arguments.
AUX_TYPES = (NAT, BOOL, A, list_t(NAT), list_t(A), option_t(NAT))
TYPED_PARAMS = AUX_TYPES + (list_t(list_t(A)), ("set", NAT), fun_t(NAT, NAT), fun_t(A, BOOL))


def _leaves(t, scope):
    out = [name for name, s in scope if s == t]
    out += {NAT: ["0", "1"], BOOL: ["True", "False"]}.get(t, [])
    out += {"list": ["[]"], "set": ["{}"], "option": ["None"]}.get(t[0], [])
    return out


@st.composite
def typed_exprs(draw, t, depth, scope, sig):
    """An expression of type ``t`` and nesting depth at most ``depth``
    (a level or two more where no leaf has the type: ``'a`` and function
    types), over the names of ``scope`` (a tuple of (name, type));
    ``sig`` is f's (param1, param2, result)."""
    leaves = _leaves(t, scope)
    if leaves and (depth == 0 or draw(st.integers(0, 3)) == 0):
        return draw(st.sampled_from(leaves))
    d = max(depth - 1, 0)

    def sub(u, inner=scope):
        return draw(typed_exprs(u, d, inner, sig))

    aux = draw(st.sampled_from(AUX_TYPES))
    v = f"z{len(scope)}"
    forms = [
        lambda: f"(If {sub(BOOL)} {sub(t)} {sub(t)})",
        lambda: f"(let {v} = {sub(aux)} in {sub(t, scope + ((v, aux),))})",
        lambda: f"(case {sub(list_t(aux))} of [] => {sub(t)} | ({v} # t{v}) => "
                f"{sub(t, scope + ((v, aux), (f't{v}', list_t(aux))))})",
        lambda: f"(case {sub(option_t(aux))} of None => {sub(t)} | Some {v} => "
                f"{sub(t, scope + ((v, aux),))})",
        lambda: f"({sub(list_t(t))} ! {sub(NAT)})",
    ]
    # A function-typed parameter or binder applied to an argument.
    forms += [lambda g=g, p=s[1]: f"({g} {sub(p)})"
              for g, s in scope if s[0] == "fun" and s[2] == t]
    p1, p2, r = sig
    if t == r:
        forms.append(lambda: f"(f {sub(p1)} {sub(p2)})")
    if t == fun_t(p2, r):
        forms.append(lambda: f"(f {sub(p1)})")
    if t == NAT:
        forms.append(lambda: f"(length {sub(list_t(aux))})")
        forms.append(lambda: f"({sub(NAT)} {draw(st.sampled_from(['+', '-', '*', 'div']))} {sub(NAT)})")
    elif t == BOOL:
        forms.append(lambda: f"({sub(aux)} = {sub(aux)})")
        forms.append(lambda: f"({sub(NAT)} < {sub(NAT)})")
    elif t[0] in ("list", "set"):
        def literal():
            elems = ", ".join(sub(t[1]) for _ in range(draw(st.integers(1, 3))))
            return f"[{elems}]" if t[0] == "list" else f"{{{elems}}}"
        forms.append(literal)
    if t[0] == "list":
        e = t[1]
        forms += [
            lambda: f"({sub(e)} # {sub(t)})",
            lambda: f"(Cons {sub(e)} {sub(t)})",
            lambda: f"(map {sub(fun_t(aux, e))} {sub(list_t(aux))})",
            lambda: f"(concat {sub(list_t(t))})",
            lambda: f"({draw(st.sampled_from(['drop', 'take']))} {sub(NAT)} {sub(t)})",
        ]
    elif t[0] == "option":
        forms.append(lambda: f"(Some {sub(t[1])})")
    elif t[0] == "fun":
        p, r = t[1], t[2]
        forms.append(lambda: f"(%{v}. {sub(r, scope + ((v, p),))})")
        if p[0] == "list" and p == r:
            forms += [lambda: f"(Cons {sub(p[1])})",
                      lambda: f"({draw(st.sampled_from(['drop', 'take']))} {sub(NAT)})"]
        if p[0] == "list" and r[0] == "list":
            forms.append(lambda: f"(map {sub(fun_t(p[1], r[1]))})")
        if p[0] == "list" and r == NAT:
            forms.append(lambda: "length")
        if r == option_t(p):
            forms.append(lambda: "Some")
    if depth == 0:
        # No leaf fits: the shallowest closed term of the type.
        return "([] ! 0)" if t == A else forms[-1]()
    return draw(st.sampled_from(forms))()


@st.composite
def typed_theories(draw):
    """The source text of one random single-equation theory that is
    well-typed by construction: each subexpression is drawn for the type
    its position needs."""
    p1, p2 = draw(st.sampled_from(TYPED_PARAMS)), draw(st.sampled_from(TYPED_PARAMS))
    result = draw(st.sampled_from(AUX_TYPES))
    rhs = draw(typed_exprs(result, 3, (("x", p1), ("y", p2)), (p1, p2, result)))
    declared = f"{show(p1, True)} => {show(p2, True)} => {show(result)}"
    return f'fun f :: "{declared}" where "f x y = {rhs}"'
