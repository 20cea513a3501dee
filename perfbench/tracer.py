"""Outside-in layer tracing for the cubichecke benchmark.

The tracer rebinds public functions and methods of the library's layers with
timing wrappers, from outside the library: a module-level function is
replaced in every ``cubichecke.*`` namespace that holds a reference to it
(``cli`` and ``structure`` import ``assemble``/``verify`` by name), a method
is replaced on its class.  ``uninstall`` puts every original object back.

Spans nest: each wrapped call adds its duration to the enclosing wrapped call's
child time, so a layer's ``self_s`` is its span time minus the time of the
wrapped calls it made.  ``busy_s`` is the span time of the outermost call of a
function (recursion is not counted twice).  Spans are aggregated per function
in memory; nothing is written until the workload ends.
"""

from __future__ import annotations

import sys
import time


class Stat:
    __slots__ = ("calls", "self_s", "busy_s", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.depth = 0
        self.counts = {}

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n


# Counters computed from a wrapped call's operands (before) or result (after).
def _term_pairs(st, args):
    st.add("term_pairs", len(args[0].terms) * len(args[1].terms))


def _entry_products(st, args):
    a, b = args[0], args[1]
    st.add("entry_products", a.rows * a.cols * b.cols)


def _exact(st, args, out):
    st.add("exact")


def _nontrivial_gcd(st, args, out):
    if not out.is_const():
        st.add("nontrivial")


def _cancel_hit(st, args, out):
    if out is not args[0]:
        st.add("hit")


def _route(st, args, out):
    st.add("route_" + out.route.replace("-", ""))


def _dump_bytes(st, args, out):
    st.add("bytes", len(out.encode()))


# (metric prefix <module>.<function>, owner class or None, attribute, before hook,
#  after hook); the module is cubichecke.<module>
LAYERS = (
    ("cyclotomic.mul", "Cyclotomic", "__mul__", None, None),
    ("cyclotomic.add", "Cyclotomic", "__add__", None, None),
    ("cyclotomic.inverse", "Cyclotomic", "inverse", None, None),
    ("laurent.mul", "LaurentPoly", "__mul__", _term_pairs, None),
    ("laurent.exact_div", None, "exact_div", None, _exact),
    ("laurent.poly_gcd", None, "poly_gcd", None, _nontrivial_gcd),
    ("ratfunc.add", "RatFunc", "__add__", None, None),
    ("ratfunc.mul", "RatFunc", "__mul__", None, None),
    ("ratfunc.cancel", "RatFunc", "cancel", None, _cancel_hit),
    ("ratfunc.reduce", "RatFunc", "reduce", None, None),
    ("ratfunc.rat_sum", None, "rat_sum", None, None),
    ("matrix.mul", "Matrix", "__mul__", _entry_products, None),
    ("matrix.rank", "Matrix", "rank", None, None),
    ("matrix.eval_matrix", None, "eval_matrix", None, None),
    ("matrix.num_mat_mul", None, "num_mat_mul", None, None),
    ("specialize.apply_ratfunc", "Specialization", "apply_ratfunc", None, None),
    ("specialize.apply_matrix", "Specialization", "apply_matrix", None, None),
    ("specialize.vanishes", "Specialization", "vanishes", None, None),
    ("jm.block_spec", None, "block_spec", None, None),
    ("jm.ab2_matrix", None, "ab2_matrix", None, None),
    ("jm.ab2_diag", None, "ab2_diag", None, None),
    ("builder.assemble", None, "assemble", None, None),
    ("builder.assemble_generic", None, "assemble_generic", None, None),
    ("builder._solve_gauge", None, "_solve_gauge", None, None),
    ("builder.verify", None, "verify", None, None),
    ("structure.classify_point", None, "classify_point", None, None),
    ("structure.census_single", None, "census_single", None, None),
    ("structure.census_pair", None, "census_pair", None, None),
    ("structure.blocks", None, "blocks", None, None),
    ("structure.exact_sequence", None, "exact_sequence", None, None),
    ("structure.composition_series", None, "composition_series", None, _route),
    ("serialize.canonical_dumps", None, "canonical_dumps", None, _dump_bytes),
)

# layer -> (counter, ratio metric): the share of calls that counted
RATIOS = {
    "laurent.exact_div": ("exact", "exact_ratio"),
    "laurent.poly_gcd": ("nontrivial", "nontrivial_ratio"),
    "ratfunc.cancel": ("hit", "hit_ratio"),
}

# lru_cache objects whose cache_info() gives a hit ratio (read, never wrapped)
CACHES = (
    ("catalog", "catalog_regular"),
    ("catalog", "spec_for"),
    ("catalog", "ideal_catalog"),
    ("catalog", "ideal_by_name"),
    ("catalog", "vanishing_for_module"),
    ("catalog", "exceptional_catalog"),
    ("catalog", "exceptional_spec"),
    ("builder", "assemble_generic"),
)


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cubichecke" or name.startswith("cubichecke."))]


class Tracer:
    """Rebinds the functions in ``LAYERS`` while installed; aggregates spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]          # child time of each open span; [0] is the root
        self._undo: list = []
        self._cache_start: dict = {}

    def _wrap(self, name, fn, before, after):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(st, args)
            st.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_s += dt - child
                st.depth -= 1
                if not st.depth:
                    st.busy_s += dt
            if after is not None:
                after(st, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import cubichecke.cli  # noqa: F401  (loads every layer module)

        for modname, attr in CACHES:
            fn = getattr(sys.modules["cubichecke." + modname], attr)
            self._cache_start[(modname, attr)] = (fn, fn.cache_info())
        mods = _library_modules()
        for name, owner, attr, before, after in LAYERS:
            home = sys.modules["cubichecke." + name.split(".")[0]]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, before, after))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in mods:
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict:
        """Raw sums as {name: value}; sums from several passes add up."""
        out = {}
        for name, st in self.stats.items():
            out[name + ".calls"] = st.calls
            out[name + ".self_s"] = st.self_s
            out[name + ".busy_s"] = st.busy_s
            for key, n in st.counts.items():
                out[name + "." + key] = n
        for (modname, attr), (fn, start) in self._cache_start.items():
            info = fn.cache_info()
            out["%s.%s.hits" % (modname, attr)] = info.hits - start.hits
            out["%s.%s.misses" % (modname, attr)] = info.misses - start.misses
        return out


def metrics(counts: dict) -> dict:
    """Per-layer metrics from raw sums: the sums plus every ratio."""
    out = dict(counts)

    def share(part, whole):
        return part / whole if whole else 0.0

    for name, (key, ratio) in RATIOS.items():
        out[name + "." + ratio] = share(counts.get(name + "." + key, 0), counts[name + ".calls"])
    for modname, attr in CACHES:
        base = "%s.%s." % (modname, attr)
        hits = counts[base + "hits"]
        out[base + "hit_ratio"] = share(hits, hits + counts[base + "misses"])
    return out
