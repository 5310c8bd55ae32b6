"""Seeded input generation for the three benchmark workloads.

Every workload is a list of ``Input`` theories plus the CLI modes run on
them.  The theory text depends only on the workload, the ladder size and
the seed, and each input is written to the same relative path on every
run, so diagnostics (which carry the path) hash identically across runs.

The corpus is a frozen copy of the test-suite corpus, so that a later
change to the tests cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

CHECK = ("check",)
ANNOTATE = ("annotate",)
JSON = ("annotate", "--emit", "json")
CPP = ("annotate", "--emit", "cpp-types")
CORPUS_MODES = (CHECK, ANNOTATE, JSON, CPP)

EXIT_OK, EXIT_TYPE, EXIT_USAGE = 0, 2, 3

CORPUS = {
    "test": '''
fun test :: "'a list => nat" where
  "test Nil = 0" |
  "test (Cons x xs) = length (If ((length xs) = 0) Nil xs) + 1"
''',
    "mymap": '''
fun mymap :: "('d => 'e) => 'd list => 'e list" where
  "mymap f [] = []" |
  "mymap f (x # xs) = (f x) # (mymap f xs)"
''',
    "product_lists": '''
primrec product_lists :: "'a list list => 'a list list" where
  "product_lists [] = [[]]" |
  "product_lists (xs # xss) = concat (map (\\<lambda>x.map (Cons x)
    (product_lists xss)) xs)"
''',
    "bs": '''
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
''',
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

NEGATIVE = 'fun g :: "nat => bool" where "g x = x"'

# Theories whose user datatype has no C++ mapping: cpp-types exits 3.
NO_CPP_MAPPING = frozenset(["rank", "tsize"])

COPIES_SPECS = ("bs", "product_lists", "mymap", "test")
COPIES_LADDER = (2, 4, 8)
BUNDLE_LADDER = (1, 2, 4)

LONG_MENU = (
    "[]", "Nil", "[x]", "Cons x []", "take 1 ys", "drop x ys",
    "map (%y. y + x) ys", "If (x = 0) [] [x]", "concat [ys, []]",
)
LONG_LADDER = (50, 100, 200)

WORK_DIR = "bench/work"


@dataclass(eq=False)
class Input:
    name: str
    source: str
    size: int = 0           # ladder size (N copies, L elements); 0 off the ladder
    negative: bool = False  # the one deliberately ill-typed theory
    nodes: int = 0          # typed AST nodes, counted once from the JSON artifact
    path: str = field(default="", init=False)

    def expected_exit(self, mode):
        if self.negative:
            return EXIT_TYPE
        if mode == CPP and self.name in NO_CPP_MAPPING:
            return EXIT_USAGE
        return EXIT_OK


def _declared_names(source):
    """Function, datatype and constructor names a theory declares."""
    names = re.findall(r"\b(?:fun|primrec)\s+(\w+)", source)
    for line in re.findall(r"datatype\s+(.*)", source):
        head, _, ctors = line.partition("=")
        names.append(head.split()[-1])
        names.extend(alt.split()[0] for alt in ctors.split("|"))
    return names


def renamed(source, suffix):
    """The theory with every declared name suffixed, so that several
    copies can share one file."""
    for name in _declared_names(source):
        source = re.sub(rf"\b{re.escape(name)}\b", f"{name}{suffix}", source)
    return source


def corpus_inputs():
    inputs = [Input(name, text) for name, text in CORPUS.items()]
    inputs.append(Input("negative", NEGATIVE, negative=True))
    return inputs


def bundle_inputs():
    """All 23 well-typed corpus theories as one file, repeated k times
    under renamed copies: the size ladder of the corpus workload."""
    return [
        Input(f"bundle{k}",
              "\n".join(renamed(text, f"_{i}") for i in range(k) for text in CORPUS.values()),
              size=k)
        for k in BUNDLE_LADDER
    ]


def copies_inputs(rng):
    """N renamed copies of four corpus specs in one theory.  Each block of
    four holds every spec once in a seeded order, so the seed moves work
    around without changing how much there is."""
    inputs = []
    for n in COPIES_LADDER:
        parts = []
        for i in range(n):
            block = list(COPIES_SPECS)
            rng.shuffle(block)
            parts.extend(renamed(CORPUS[name], str(i)) for name in block)
        inputs.append(Input(f"copies{n}", "\n".join(parts), size=n))
    return inputs


def long_inputs(rng):
    """One equation ``lng x ys = [e1, ..., eL]``.  Each block of
    ``len(LONG_MENU)`` elements holds every menu form once in a seeded
    order."""
    inputs = []
    for length in LONG_LADDER:
        elems = []
        while len(elems) < length:
            block = list(LONG_MENU)
            rng.shuffle(block)
            elems.extend(block)
        body = ", ".join(elems[:length])
        source = ('fun lng :: "nat => nat list => nat list list" where\n'
                  f'  "lng x ys = [{body}]"\n')
        inputs.append(Input(f"long{length}", source, size=length))
    return inputs


@dataclass
class Workload:
    name: str
    inputs: list      # the inputs of the timed op stream
    modes: tuple      # CLI modes run on every input
    ladder: list      # inputs the growth exponent is fitted over
    headline: list    # inputs whose ops give op_p50_ms and op_tail_ms
    # The highest percentile with at least ten of a run's headline ops
    # beyond it: ~10,000 corpus ops per run, ~40 on the scaling families.
    tail_percentile: int


def make_workload(name, rng):
    if name == "corpus":
        inputs = corpus_inputs()
        return Workload(name, inputs, CORPUS_MODES, bundle_inputs(), inputs, 99)
    if name == "copies":
        inputs = copies_inputs(rng)
    elif name == "long":
        inputs = long_inputs(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, inputs, (CHECK,), inputs, inputs[-1:], 75)


def write_inputs(inputs, workload):
    """Write each input to its fixed relative path under the work dir."""
    directory = os.path.join(WORK_DIR, workload)
    os.makedirs(directory, exist_ok=True)
    for inp in inputs:
        inp.path = f"{directory}/{inp.name}.thy"
        with open(inp.path, "w", encoding="utf-8") as fh:
            fh.write(inp.source)
