"""In-memory span tracer for the traced benchmark pass.

The tracer wraps, from outside the program, the public functions and public
methods of every ``diagmon`` module (plus the private helpers named in
``PRIVATE``), and installs each wrapper under every name through which the
function is reached: the defining module, every module that imported it by
name, and containers such as ``verify.SUITES``.  The program's own code is
not modified.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls it made, so the self times of all spans plus
the time spent outside any span add up to the traced wall time.  Kernel
functions in ``HOT`` are aggregated only (calls, total and self time) and
not recorded one by one, which keeps memory bounded; ``FiniteMonoid.mul``
is counted, not timed, because a timer costs more than the table lookup it
would measure.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = (
    "diagrams",
    "relations",
    "zoo",
    "monoid",
    "ehresmann",
    "algebra",
    "dotout",
    "verify",
    "cli",
)

# Aggregated, never recorded as individual spans: each is called more than
# a thousand times in a pass of some workload.
HOT = frozenset(
    {
        "diagrams.multiply",
        "diagrams.params",
        "diagrams.refines",
        "diagrams.is_brauer",
        "diagrams.upper_nontransversals",
        "diagrams.lower_nontransversals",
        "diagrams.Partition.blocks",
        "diagrams.SetPartition.refines",
        "relations.compose",
        "relations.is_partial_function",
        "zoo.has_absorbing_block",
        "zoo.leq_r_structural",
        "zoo.leq_l_structural",
        "zoo.leq_r_prime_structural",
        "monoid.FiniteMonoid.decode",
        "ehresmann.e_left",
        "ehresmann.e_right",
        "algebra.RationalAlgebra.trace_left",
    }
)

# Not wrapped at all: a two-line accessor called 10^7 times per exact-algebra
# pass, where a timer would cost ten times the call.  Its time is its
# caller's self time.
NOT_TRACED = frozenset({"algebra.EhresmannCategory.compose"})

COUNTED_ONLY = "monoid.FiniteMonoid.mul"

# Private helpers wrapped because a counter hangs on them.
PRIVATE = ("cli._write_out", "monoid.FiniteMonoid._build_table")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.stack = []  # frames: [start_ns, child_ns, record_id, qualname]
        self.stats = {}  # qualname -> [calls, total_ns, self_ns]
        self.spans = []  # (id, parent_id, qualname, start_ns, end_ns, pass_id)
        self.counters = {}
        self._built = set()  # ids of monoids returned by zoo.build misses
        self._zoo_build = None  # the original lru_cache of zoo.build
        self._mul_counts = [0, 0]  # all FiniteMonoid.mul calls, table-less ones

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _timed(self, qualname, fn, hook):
        stack = self.stack
        stats = self.stats.setdefault(qualname, [0, 0, 0])
        spans = self.spans
        clock = time.perf_counter_ns
        record = qualname not in HOT
        pass_id = self.pass_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            rid = len(spans) if record else parent
            if record:
                spans.append(None)  # reserve the id; filled on exit
            frame = [clock(), 0, rid, qualname]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans[rid] = (rid, parent, qualname, frame[0], end, pass_id)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counted_mul(self, fn):
        counts = self._mul_counts

        @functools.wraps(fn)
        def mul(m, i, j):
            counts[0] += 1
            if m.table is None:
                counts[1] += 1
            return fn(m, i, j)

        return mul

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind every name that held it."""
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("diagmon.") and mod is not None
        }
        hooks = _hooks(modules)
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[layer]
            for qualname, owner, attr, fn in _targets(layer, mod):
                if qualname in NOT_TRACED:
                    continue
                if qualname == COUNTED_ONLY:
                    wrapped = self._counted_mul(fn)
                else:
                    wrapped = self._timed(qualname, fn, hooks.get(qualname))
                if qualname == "zoo.build":
                    self._zoo_build = fn
                replaced[id(fn)] = wrapped
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped_attr = classmethod(wrapped)
                elif isinstance(raw, staticmethod):
                    wrapped_attr = staticmethod(wrapped)
                else:
                    wrapped_attr = wrapped
                setattr(owner, attr, wrapped_attr)
        # Rebind names imported elsewhere and functions held in containers.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and callable(value):
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, tuple):
                            value[key] = tuple(
                                replaced.get(id(f), f) for f in item
                            )

    # -- results -------------------------------------------------------------

    def finish(self):
        """Collect the counters that are read once, at the end."""
        self.counters["monoid.mul.calls"] = self._mul_counts[0]
        self.counters["monoid.mul.ondemand_calls"] = self._mul_counts[1]
        info = self._zoo_build.cache_info()
        self.counters["zoo.build.hits"] = info.hits
        self.counters["zoo.build.misses"] = info.misses

    def to_json(self):
        """Aggregates plus the recorded spans of this process."""
        layer_self = dict.fromkeys(LAYERS, 0)
        for qualname, (_, _, self_ns) in self.stats.items():
            layer_self[qualname.split(".", 1)[0]] += self_ns
        return {
            "stats": self.stats,
            "layer_self_ns": layer_self,
            "counters": self.counters,
            "spans": [s for s in self.spans if s is not None],
        }


def _targets(layer, mod):
    """(qualname, owner, attribute, function) for each traced callable."""
    prefix = f"{layer}."
    for attr, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
            if not attr.startswith("_") or prefix + attr in PRIVATE:
                yield prefix + attr, mod, attr, obj
        elif isinstance(obj, type):
            for name, raw in list(vars(obj).items()):
                qualname = f"{prefix}{obj.__name__}.{name}"
                if name.startswith("_") and qualname not in PRIVATE:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if isinstance(fn, types.FunctionType):
                    yield qualname, obj, name, fn


def _hooks(modules):
    """Counters updated from a call's arguments and result."""
    algebra = modules["algebra"]
    verify = modules["verify"]

    def universe(tr, args, result):
        # Only a universe that zoo.build filters counts towards keep_ratio.
        if tr.stack and tr.stack[-1][3] == "zoo.build":
            tr.count("zoo.filter.scanned", len(result))

    def build(tr, args, result):
        if id(result) not in tr._built:
            tr._built.add(id(result))
            tr.count("zoo.filter.kept", result.size)

    def table(tr, args, result):
        tr.count("monoid.table.products", sum(len(row) for row in result))

    def axioms(tr, args, result):
        tr.count("ehresmann.check_axioms.generator_sweeps",
                 result.theta_sweep == "generators")

    def stein(tr, args, result):
        tr.count("algebra.verify_stein.sampled_calls",
                 args[0].size > algebra.BASIS_CAP)

    def eggbox(tr, args, result):
        tr.count("dotout.bytes", len(result.encode()))

    def checks(tr, args, result):
        tr.count("verify.checks_passed", sum(r.passed for r in result))

    def written(tr, args, result):
        tr.count("cli.output_bytes", len(args[0].encode()))

    hooks = {
        "zoo.partition_universe": universe,
        "zoo.relation_universe": universe,
        "zoo.build": build,
        "monoid.FiniteMonoid._build_table": table,
        "ehresmann.check_axioms": axioms,
        "algebra.verify_stein": stein,
        "dotout.emit_eggbox": eggbox,
        "cli._write_out": written,
    }
    for suite in verify.SUITES.values():
        for check in suite:
            hooks[f"verify.{check.__name__}"] = checks
    return hooks
