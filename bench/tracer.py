"""Per-layer tracing of `nygaard`, installed from outside the program.

`Tracer.install()` replaces the module-level functions of the layer modules,
and chosen methods of their classes, with timing wrappers. A function that
another module copied with `from .linalg import ...` is replaced under the
copied name too, otherwise calls through that name would not be seen.

Every wrapped call is a span: answer index, function, nesting depth, start
and end. Spans are kept in memory and written out by `write()` when the pass
ends. A function's self time is its span minus the spans recorded inside it;
the tracer's own bookkeeping is charged to nobody. Window ranks, orbit
stabilisation depths and coefficient sizes are read from arguments and
return values, never from inside the program.
"""

import functools
import json
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("syntomic", "linalg", "pdalg", "torus", "qtorus", "qbase", "complexes", "witt")

# Helpers called per matrix entry, per monomial or per ring operation. Their
# time is charged to the caller: wrapping them would cost more than they do.
LEAVES = {
    "linalg": {"zeros", "identity", "mat_copy", "mat_add", "mat_sub", "mat_scale",
               "mat_mod", "mat_transpose", "mat_is_zero", "row_mul", "mat_stack", "_vp"},
    "pdalg": {"vp_factorial", "unit_part_factorial", "conj_level"},
    "torus": {"subsets", "koszul_sign"},
    "qbase": {"_binom"},
    "witt": {"_int_mul", "_ring_pow", "_poly_add", "_poly_scale", "_poly_mul",
             "_poly_pow", "_poly_div_int"},
}

# Methods wrapped on classes; None means every method the class defines,
# dunder methods excepted.
METHODS = {
    ("pdalg", "PDAlgebra"): ("__init__", "monomials", "mul", "frobenius"),
    ("torus", "TorusDeRham"): ("diff_matrix", "divided_frobenius_matrix", "nygaard_scale"),
    ("qtorus", "QTorusComplex"): ("diff_matrix", "weight_block", "frobenius_matrix",
                                  "nygaard_scale_matrix", "nygaard_lattice_rows",
                                  "divided_frobenius_matrix", "normalized_diff_matrix"),
    ("qbase", "QBase"): ("mult_matrix", "phi_matrix"),
    ("witt", "FpSquareModel"): None,
    ("witt", "QSquareModel"): None,
    ("witt", "PerfectoidPresentation"): None,
}


def max_bits(*mats):
    """Largest entry bit length over integer matrices (lists of rows)."""
    hi = 0
    for M in mats:
        for row in M:
            if row:
                hi = max(hi, max(row), -min(row))
    return hi.bit_length()


class Tracer:
    def __init__(self):
        self.keys = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.gauges = defaultdict(int)
        self.counts = defaultdict(int)
        self.answers = []
        self._span = {f: array(t) for f, t in (("answer", "i"), ("key", "i"), ("depth", "i"),
                                                ("t0", "d"), ("t1", "d"))}
        self._stack = []
        self._orbits = set()
        self._lattices = set()
        self._restore = []

    # -- answers ---------------------------------------------------------

    def begin_answer(self, answer_id):
        self.answers.append(answer_id)
        self._orbits.clear()
        self._lattices.clear()

    def end_answer(self):
        self.counts["distinct_orbits"] += len(self._orbits)
        self.counts["distinct_lattices"] += len(self._lattices)

    # -- observers on arguments and return values ------------------------

    def _orbit_contribution(self, args, out):
        contrib, k_used = out
        self._orbits.add(tuple(sorted(contrib.items())))
        self._gauge("stabilisation_depth", max(k_used.values(), default=0))

    def _assemble_window(self, args, out):
        self._gauge("window_rank", max(out[0].values(), default=0))

    def _hermite_form(self, args, out):
        self._gauge("coeff_bits", max_bits(args[0], *(out if isinstance(out, tuple) else (out,))))

    def _smith_form(self, args, out):
        self._gauge("coeff_bits", max_bits(args[0], *out))

    def _solve_left(self, args, out):
        self._lattices.add(hash(tuple(map(tuple, args[0]))))

    def _gauge(self, name, value):
        if value > self.gauges[name]:
            self.gauges[name] = value

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key, fn, observe=None):
        k = len(self.keys)
        self.keys.append(key)
        stack = self._stack
        clock = time.perf_counter
        span = self._span
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        answers = self.answers

        # a frame holds the time of the calls made inside it and the part
        # of that time the tracer itself spent
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if ok and observe is not None:
                    observe(args, out)
                calls[key] += 1
                total_s[key] += t1 - t0 - frame[1]
                self_s[key] += t1 - t0 - frame[0]
                span["answer"].append(len(answers) - 1)
                span["key"].append(k)
                span["depth"].append(len(stack))
                span["t0"].append(t0)
                span["t1"].append(t1 - frame[1])
                if stack:
                    t2 = clock()
                    stack[-1][0] += t2 - t0
                    stack[-1][1] += frame[1] + t2 - t1
            return out

        return traced

    def install(self):
        """Wrap every layer function and method; `uninstall()` undoes it."""
        import importlib

        package = importlib.import_module("nygaard")
        mods = {name: importlib.import_module("nygaard." + name) for name in LAYERS}
        mods["cli"] = importlib.import_module("nygaard.cli")
        observers = {
            "syntomic._orbit_contribution": self._orbit_contribution,
            "syntomic._assemble_window": self._assemble_window,
            "linalg.hermite_form": self._hermite_form,
            "linalg.smith_form": self._smith_form,
            "linalg.solve_left": self._solve_left,
        }
        replaced = {}
        for name in LAYERS:
            mod = mods[name]
            for attr, obj in list(vars(mod).items()):
                if attr in LEAVES.get(name, ()) or not callable(obj):
                    continue
                if isinstance(obj, type) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not isinstance(obj, types.FunctionType) and not hasattr(obj, "cache_info"):
                    continue
                key = "%s.%s" % (name, attr)
                replaced[id(obj)] = self._wrap(key, obj, observers.get(key))
        # every binding of a wrapped function, including `from .x import f` copies
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)].__wrapped__ is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
        for (name, cls_name), methods in METHODS.items():
            cls = getattr(mods[name], cls_name)
            if methods is None:
                methods = [m for m, f in vars(cls).items()
                           if isinstance(f, types.FunctionType) and not m.startswith("__")]
            for m in methods:
                fn = vars(cls)[m]
                self._restore.append((cls, m, fn))
                setattr(cls, m, self._wrap("%s.%s.%s" % (name, cls_name, m), fn))
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "keys": self.keys,
                "answers": self.answers,
                "spans": {f: a.tolist() for f, a in self._span.items()},
            }, fh, separators=(",", ":"))

    def layer_metrics(self):
        """The per-layer metrics of everything traced so far.

        `.s` is self time and `.total_s` inclusive time. `torus.matrices`
        and `qtorus.matrices` sum the wrapped matrix accessors,
        `qtorus.checks` the module-level functions of `qtorus`,
        `pdalg.conjugate_filtration` both descriptions and their equality
        check (`.total_s`: the two descriptions), `witt` everything in
        `witt`. The two shares are distinct orbit contributions per orbit
        window solved and distinct lattices per `solve_left` call, both
        counted within one answer."""
        calls, self_s = self.calls, self.self_s

        def n(*keys):
            return sum(calls[k] for k in keys)

        def s(*keys):
            return sum(self_s[k] for k in keys)

        def prefixed(prefix):
            return [k for k in calls if k.startswith(prefix)]

        torus_m = ["torus.TorusDeRham." + m for m in METHODS[("torus", "TorusDeRham")]]
        qtorus_m = ["qtorus.QTorusComplex." + m for m in METHODS[("qtorus", "QTorusComplex")]]
        qtorus_m += ["qbase.QBase.mult_matrix", "qbase.QBase.phi_matrix"]
        qtorus_checks = [k for k in prefixed("qtorus.") if k.count(".") == 1]
        conj = ("pdalg.conjugate_filtration_description1", "pdalg.conjugate_filtration_spans",
                "pdalg.conjugate_filtration_equality_check")
        orbits = calls["syntomic._orbit_contribution"]
        solves = calls["linalg.solve_left"]
        out = {}
        for short, key in (("syntomic.orbit_contribution", "syntomic._orbit_contribution"),
                           ("syntomic.window_cohomology", "syntomic._window_cohomology"),
                           ("linalg.hermite_form", "linalg.hermite_form"),
                           ("linalg.solve_left", "linalg.solve_left"),
                           ("linalg.preimage_lattice", "linalg.preimage_lattice"),
                           ("linalg.quotient_invariants", "linalg.quotient_invariants"),
                           ("linalg.smith_form", "linalg.smith_form"),
                           ("linalg.howell_form", "linalg.howell_form"),
                           ("pdalg.mul", "pdalg.PDAlgebra.mul"),
                           ("pdalg.frobenius", "pdalg.PDAlgebra.frobenius")):
            out[short + ".calls"] = n(key)
            out[short + ".s"] = s(key)
        out["syntomic.distinct_orbit_share"] = (
            self.counts["distinct_orbits"] / orbits if orbits else 0.0)
        out["syntomic.assemble_window.s"] = s("syntomic._assemble_window")
        out["syntomic.window_rank.max"] = self.gauges["window_rank"]
        out["syntomic.stabilisation_depth.max"] = self.gauges["stabilisation_depth"]
        out["linalg.max_coeff_bits"] = self.gauges["coeff_bits"]
        out["linalg.solve_left.distinct_share"] = (
            self.counts["distinct_lattices"] / solves if solves else 0.0)
        out["linalg.solve_left.total_s"] = self.total_s["linalg.solve_left"]
        out["pdalg.conjugate_filtration.s"] = s(*conj)
        out["pdalg.conjugate_filtration.total_s"] = sum(self.total_s[k] for k in conj[:2])
        out["pdalg.algebras"] = n("pdalg.PDAlgebra.__init__")
        out["pdalg.basis_builds"] = n("pdalg.PDAlgebra.monomials")
        out["torus.matrices.calls"] = n(*torus_m)
        out["torus.matrices.s"] = s(*torus_m)
        out["qtorus.matrices.calls"] = n(*qtorus_m)
        out["qtorus.matrices.s"] = s(*qtorus_m)
        out["qtorus.checks.s"] = s(*qtorus_checks)
        out["complexes.eta.s"] = s("complexes.eta", "complexes.eta_cohomology_law_check")
        out["witt.s"] = s(*prefixed("witt."))
        return out
