"""Span wrappers around the calls into each holtypes layer.

``Tracer.install`` rebinds every public pipeline function at every place a
holtypes module holds a reference to it (``parse_theory`` is bound again
in ``holtypes.cli``, ``compare`` and ``reduce`` in ``holtypes.infer``, and
so on), and wraps methods on their class.  Each call records a span:
start, end, the enclosing span and the op it belongs to.  Spans stay in
memory until the benchmark writes them out at the end.

A span's self time is its duration minus the time its child spans cover.
Work the tracer does for its own counters is charged to
``trace.bookkeeping``, not to the layer it happens inside.

Inside ``SolverRegistry.with_prelude`` the parser is not traced, only
counted, so that ``registry.prelude`` holds the whole cost of building
the prelude.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# Every self-time key; each becomes a ``<key>_ms`` and ``<key>_share``
# per-layer metric.
SPAN_KEYS = (
    "cli.self", "parser.tokenize", "parser.parse",
    "registry.prelude", "registry.instantiate",
    "infer.spec", "infer.extract", "infer.bottom_up", "infer.seed",
    "infer.top_down", "infer.subst",
    "unify.compare", "unify.reduce", "unify.unify_app", "unify.unify_abs",
    "emit.json", "emit.annotated", "emit.cpp",
    "trace.bookkeeping",
)

COUNT_KEYS = (
    "registry.prelude_calls", "registry.parse_type_calls", "registry.instantiate_calls",
    "parser.tokens", "parser.nodes", "infer.equations",
    "infer.subst_calls", "infer.subst_nodes", "infer.subst_hits",
    "unify.compare_calls", "unify.reduce_calls", "unify.reduce_failed",
    "emit.bytes",
)


def _subst_snapshot(tracer, args):
    sess = args[0]
    parts = getattr(sess, "_app_parts", {})
    return dict(sess.ctx.node_types), {k: list(v) for k, v in parts.items()}


def _subst_count(tracer, args, result, ok, state):
    sess = args[0]
    old_types, old_parts = state
    new_parts = getattr(sess, "_app_parts", {})
    rewritten = len(sess.ctx.node_types) + sum(len(p) for p in new_parts.values())
    changed = sum(1 for k, t in sess.ctx.node_types.items() if old_types.get(k) != t)
    changed += sum(1 for k, parts in new_parts.items() if old_parts.get(k) != parts
                   for old, new in zip(old_parts.get(k, ()), parts) if old != new)
    tracer.counts["infer.subst_calls"] += 1
    tracer.counts["infer.subst_nodes"] += rewritten
    tracer.counts["infer.subst_hits"] += changed


def _counter(name):
    def after(tracer, args, result, ok, state):
        tracer.counts[name] += 1
    return after


def _reduce_count(tracer, args, result, ok, state):
    tracer.counts["unify.reduce_calls"] += 1
    if not ok:
        tracer.counts["unify.reduce_failed"] += 1


def _token_count(tracer, args, result, ok, state):
    if ok:
        tracer.counts["parser.tokens"] += len(result)


def _equation_count(tracer, args, result, ok, state):
    tracer.counts["infer.equations"] += len(args[1].equations)


def _emitted_bytes(tracer, args, result, ok, state):
    if ok:
        tracer.counts["emit.bytes"] += len(result.encode())


def _enter_prelude(tracer, args):
    tracer.prelude_depth += 1


def _leave_prelude(tracer, args, result, ok, state):
    tracer.prelude_depth -= 1
    tracer.counts["registry.prelude_calls"] += 1


# (module, attribute path, span key, before hook, after hook)
TARGETS = (
    ("holtypes.cli", "main", "cli.self", None, None),
    ("holtypes.parser", "tokenize", "parser.tokenize", None, _token_count),
    ("holtypes.parser", "parse_theory", "parser.parse", None, None),
    ("holtypes.parser", "parse_type", "parser.parse", None, None),
    ("holtypes.registry", "SolverRegistry.with_prelude", "registry.prelude",
     _enter_prelude, _leave_prelude),
    ("holtypes.registry", "SolverRegistry.instantiate", "registry.instantiate",
     None, _counter("registry.instantiate_calls")),
    ("holtypes.infer", "infer_theory", "infer.spec", None, None),
    ("holtypes.infer", "infer_spec", "infer.spec", None, _equation_count),
    ("holtypes.infer", "extract_pattern_types", "infer.extract", None, None),
    ("holtypes.infer", "bottom_up", "infer.bottom_up", None, None),
    ("holtypes.infer", "_seed_return_type", "infer.seed", None, None),
    ("holtypes.infer", "top_down", "infer.top_down", None, None),
    ("holtypes.infer", "InferenceSession.apply_substitution", "infer.subst",
     _subst_snapshot, _subst_count),
    ("holtypes.unify", "compare", "unify.compare", None, _counter("unify.compare_calls")),
    ("holtypes.unify", "reduce", "unify.reduce", None, _reduce_count),
    ("holtypes.unify", "unify_app", "unify.unify_app", None, None),
    ("holtypes.unify", "unify_abs", "unify.unify_abs", None, None),
    ("holtypes.emit", "emit_json", "emit.json", None, _emitted_bytes),
    ("holtypes.emit", "emit_annotated", "emit.annotated", None, _emitted_bytes),
    ("holtypes.emit", "render_cpp_signature", "emit.cpp", None, _emitted_bytes),
)

# Parser entry points that the prelude calls; counted, not traced, there.
_PRELUDE_PASSTHROUGH = {"parse_type": "registry.parse_type_calls", "tokenize": None}


class Tracer:
    def __init__(self):
        self.spans = []          # (op, span id, parent id, key, start, end)
        self.stack = []          # [span id, seconds covered by children]
        self.self_s = Counter()  # span key -> self seconds in the current op
        self.counts = Counter()  # counter -> value in the current op
        self.fired = set()       # targets that ran at least once
        self.prelude_depth = 0
        self.op = 0
        self.next_id = 0
        self.patches = []        # (owner, attribute, original, wrapper)
        self.absent = []         # targets this version of holtypes lacks

    def _wrap(self, label, key, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            tracer.fired.add(label)
            state = before(tracer, args) if before else None
            stack = tracer.stack
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result, ok = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.self_s[key] += (end - start) - frame[1]
                tracer.spans.append((tracer.op, frame[0], parent, key, start, end))
                if after:
                    after(tracer, args, result, ok, state)
                leave = perf_counter()
                tracer.self_s["trace.bookkeeping"] += (start - enter) + (leave - end)
                if stack:
                    stack[-1][1] += leave - enter

        name = label.rsplit(".", 1)[-1]
        if name not in _PRELUDE_PASSTHROUGH:
            return wrapper
        count_key = _PRELUDE_PASSTHROUGH[name]

        def parser_entry(*args, **kwargs):
            if tracer.prelude_depth:
                if count_key:
                    tracer.counts[count_key] += 1
                return fn(*args, **kwargs)
            return wrapper(*args, **kwargs)

        return parser_entry

    def prepare(self):
        """Build the wrappers and find every place to install them."""
        for module_name, path, key, before, after in TARGETS:
            module = importlib.import_module(module_name)
            label = f"{module_name}.{path}"
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = vars(owner).get(attr)
            if original is None:
                self.absent.append(label)
                continue
            if owner_path:
                is_classmethod = isinstance(original, classmethod)
                fn = original.__func__ if is_classmethod else original
                wrapper = self._wrap(label, key, fn, before, after)
                self.patches.append((owner, attr, original,
                                     classmethod(wrapper) if is_classmethod else wrapper))
                continue
            wrapper = self._wrap(label, key, original, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "holtypes" and not mod_name.startswith("holtypes."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, name, original, wrapper))
        return self

    @property
    def labels(self):
        return {f"{m}.{p}" for m, p, *_ in TARGETS} - set(self.absent)

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def end_op(self):
        """Self seconds and counts of the op just finished; starts the next."""
        self_s, counts = self.self_s, self.counts
        self.self_s, self.counts = Counter(), Counter()
        self.op += 1
        return self_s, counts
