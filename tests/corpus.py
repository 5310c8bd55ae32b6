"""Shared specification sources and helpers for the test suite."""

import holtypes as h

TEST_SPEC = '''
fun test :: "'a list => nat" where
  "test Nil = 0" |
  "test (Cons x xs) = length (If ((length xs) = 0) Nil xs) + 1"
'''

MYMAP_SPEC = '''
fun mymap :: "('d => 'e) => 'd list => 'e list" where
  "mymap f [] = []" |
  "mymap f (x # xs) = (f x) # (mymap f xs)"
'''

PRODUCT_LISTS_SPEC = '''
primrec product_lists :: "'a list list => 'a list list" where
  "product_lists [] = [[]]" |
  "product_lists (xs # xss) = concat (map (\\<lambda>x.map (Cons x)
    (product_lists xss)) xs)"
'''

BS_SPEC = '''
fun bs :: "nat => nat list => nat option" where
  "bs x [] = None" |
  "bs x [y] = If (x = y) (Some 0) None" |
  "bs x ys = (let m = (length ys) div 2 in
      let y = ys ! m in
        If (y = x)
          (Some m)
          (If (y < x)
            (case bs x (drop (m + 1) ys) of Some n => Some
            (m + n + 1) |
                None => None)
            (bs x (take m ys)
          )
      )
  )"
'''

NEGATIVE_SPEC = 'fun g :: "nat => bool" where "g x = x"'

CORPUS = {
    "test": TEST_SPEC,
    "mymap": MYMAP_SPEC,
    "product_lists": PRODUCT_LISTS_SPEC,
    "bs": BS_SPEC,
    "idn": '(* identity, with a (* nested *) comment *)\nfun idn :: "nat => nat" where "idn x = x"',
    "pick": 'fun pick :: "bool => nat" where "pick b = (if b then 1 else 0)"',
    "rank": 'datatype color = Red | Green | Blue\n'
            'fun rank :: "color => nat" where '
            '"rank c = (case c of Red => 0 | Green => 1 | Blue => 2)"',
    "tsize": 'datatype \'a tree = Leaf | Node "\'a tree" \'a "\'a tree"\n'
             'fun tsize :: "\'a tree => nat" where\n'
             '  "tsize Leaf = 0" |\n'
             '  "tsize (Node l x r) = tsize l + tsize r + 1"',
    "dbl": 'fun dbl :: "nat => nat" where "dbl x = (let y = x + x in y)"',
    "sq_all": 'fun sq_all :: "nat list => nat list" where "sq_all xs = map (%x. x * x) xs"',
    "pairset": 'fun pairset :: "nat => nat set" where "pairset x = {x, 0}"',
    "hetero": 'fun hetero :: "\'a list => nat list" where "hetero xs = [0, length xs]"',
    "half": 'fun half :: "nat => nat option" where '
            '"half x = (if x < 2 then None else Some (x div 2))"',
    "mid": 'fun mid :: "\'a list => \'a" where "mid xs = xs ! (length xs div 2)"',
    "consone": 'fun consone :: "nat list list => nat list list" where '
               '"consone xss = map (Cons 1) xss"',
    "second": 'fun second :: "\'a list => \'a" where "second (x # y # ys) = y"',
    "hd0": 'fun hd0 :: "nat list => nat" where "hd0 xs = (case xs of [] => 0 | y # ys => y)"',
    "maxn": 'fun maxn :: "nat => nat => nat" where "maxn a b = If (a < b) b a"',
    "gauss": 'fun gauss :: "nat => nat" where "gauss 0 = 0" | "gauss n = n + gauss (n - 1)"',
    "odef": 'fun odef :: "nat option => nat" where '
            '"odef v = (case v of Some n => n | None => 0)"',
    "quad": 'fun twice :: "nat => nat" where "twice x = x + x"\n'
            'fun quad :: "nat => nat" where "quad x = twice (twice x)"',
    "funlist": 'fun funlist :: "nat => (nat => nat => nat) list" where '
               '"funlist n = [%a b. a + b]"',
    "nothing": 'fun nothing :: "nat => \'a set" where "nothing x = {}"',
}

# Element forms of ``long_equation``, used in turn.
LONG_ELEMENTS = (
    "[]", "Nil", "[x]", "Cons x []", "take 1 ys", "drop x ys",
    "map (%y. y + x) ys", "If (x = 0) [] [x]", "concat [ys, []]",
)


def long_equation(length):
    """One equation ``lng x ys = [e1, ..., eL]`` whose elements cycle
    through ``LONG_ELEMENTS``: all of its unification happens in one
    typing context."""
    body = ", ".join(LONG_ELEMENTS[i % len(LONG_ELEMENTS)] for i in range(length))
    return ('fun lng :: "nat => nat list => nat list list" where\n'
            f'  "lng x ys = [{body}]"\n')


def infer_source(source):
    theory = h.parse_theory(source)
    result = h.infer_theory(theory)
    return theory, result


def find_app(root, head):
    """First application of ``head`` under ``root``, pre-order."""
    from holtypes.exprs import AppExpr, walk

    for node in walk(root):
        if isinstance(node, AppExpr) and node.head == head:
            return node
    raise AssertionError(f"no application of {head!r} found")


def all_diagnostics(result):
    return [d for ts in result.typed_specs for d in ts.diagnostics]
