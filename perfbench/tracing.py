"""Span recording around conezeta's module boundaries, from outside the package.

A Tracer replaces functions on the names that conezeta.cli, conezeta.pipeline
and conezeta.numeric import (and a few methods of conezeta.exact classes with
call counters), records one span per call in memory, and puts every original
back on uninstall().  Span names are "<layer>.<function>"; the layer is the
conezeta module that owns the function.
"""

import collections
import inspect
import json
import time

perf_counter = time.perf_counter

# conezeta's modules in pipeline order; linalg calls are counted, not spanned,
# so its time shows in the self time of the layers that call it
LAYERS = ("cli", "pipeline", "geometry", "exact", "linalg", "derivation",
          "rewrite", "polylog", "numeric")
SPANNED_LAYERS = tuple(layer for layer in LAYERS if layer != "linalg")

# (module, attribute, span name): every call through the name is one span
SPANS = [
    ("cli", "parse_job", "cli.parse_job"),
    ("cli", "run_job", "cli.run_job"),
    ("cli", "reduce_cone_zeta", "pipeline.reduce_cone_zeta"),
    ("cli", "eval_zexpr", "numeric.eval_zexpr"),
    ("cli", "eval_cone_zeta", "numeric.eval_cone_zeta"),
    ("pipeline", "reduce_cone_zeta", "pipeline.reduce_cone_zeta"),
    ("pipeline", "open_simplicial_decomposition", "geometry.decompose"),
    ("pipeline", "free_superlattice", "geometry.decompose"),
    ("pipeline", "convergence_check", "rewrite.convergence_check"),
    ("pipeline", "restrict_character", "exact.characters"),
    ("pipeline", "induced_character_decompose", "exact.characters"),
    ("pipeline", "integral_expression", "rewrite.integral_expression"),
    ("pipeline", "build_derived_sequences",
     "derivation.build_derived_sequences"),
    ("pipeline", "primitive_rescale", "derivation.primitive_rescale"),
    ("pipeline", "change_coordinates", "rewrite.change_coordinates"),
    ("pipeline", "uni_factorize", "rewrite.uni_factorize"),
    ("pipeline", "reduce_to_univariate", "rewrite.reduce_to_univariate"),
    ("pipeline", "execute_recipe", "pipeline.execute_recipe"),
    ("pipeline", "multiply_factor", "polylog.multiply_factor"),
    ("pipeline", "integrate_P", "polylog.integrate_P"),
    ("pipeline", "regularize_limit", "polylog.regularize_limit"),
    ("numeric", "eval_mzv", "numeric.eval_mzv"),
    ("numeric", "eval_zexpr", "numeric.eval_zexpr"),
    ("numeric", "eval_cone_zeta", "numeric.eval_cone_zeta"),
    ("numeric", "verify_reduction", "numeric.verify_reduction"),
]

# (module, owner, attribute, counter name): calls are counted, not spanned
COUNTERS = [
    ("exact", "CycloNumber", "__mul__", "exact.cyclo_mul"),
    ("exact", "CycloNumber", "__rmul__", "exact.cyclo_mul"),
    ("exact", "CycloNumber", "__add__", "exact.cyclo_add"),
    ("exact", "CycloNumber", "__radd__", "exact.cyclo_add"),
    ("exact", "LatticeCharacter", "eval", "exact.character_eval"),
    ("exact", None, "solve_consistent", "linalg.solve_consistent"),
    ("derivation", None, "solve_consistent", "linalg.solve_consistent"),
]

# the zero check is a closure made by zexpr_zero_check; wrap what it returns
ZERO_CHECK_FACTORIES = [("cli", "zexpr_zero_check"),
                        ("numeric", "zexpr_zero_check")]


def lattice_points(bound_args):
    """Grid points numeric.eval_cone_zeta enumerates, computed from its
    radius, refine and character modulus (three nested cut-offs)."""
    a = bound_args.arguments
    m = len(a["generators"][0])
    chi = a["character"]
    mod = 1 if chi is None else int(chi.modulus)
    u = max(int(a["refine"]) * int(a["radius"]) // (4 * mod), 1)
    radii = (u * mod, 2 * u * mod, 4 * u * mod)
    if m == 1:
        return sum(radii)
    return sum((2 * r + 1) ** m for r in radii)


class Tracer:
    """In-memory spans [name, start, end, parent index, job id] and counters."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.job = None
        self._mzv_seen = set()
        self._saved = []

    # -- recording ------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name, fn):
        """Counters that need the arguments or the result of a call."""
        counts = self.counts
        if name == "geometry.decompose" and fn.__name__ == \
                "open_simplicial_decomposition":
            return lambda a, k, out: counts.update({"geometry.pieces":
                                                    len(out)})
        if name == "derivation.build_derived_sequences":
            return lambda a, k, out: counts.update({"derivation.branches":
                                                    len(out)})
        if name == "rewrite.uni_factorize":
            return lambda a, k, out: counts.update({"rewrite.uni_terms":
                                                    len(out)})
        if name == "numeric.eval_cone_zeta":
            sig = inspect.signature(fn)

            def points(a, k, out):
                b = sig.bind(*a, **k)
                b.apply_defaults()
                counts["numeric.lattice_points"] += lattice_points(b)
            return points
        if name == "numeric.eval_mzv":
            sig = inspect.signature(fn)

            def repeats(a, k, out):
                b = sig.bind(*a, **k)
                b.apply_defaults()
                key = (tuple(int(x) for x in b.arguments["ks"]),
                       tuple(repr(e) for e in b.arguments["eps"]),
                       int(b.arguments["terms"]))
                if key in self._mzv_seen:
                    counts["numeric.eval_mzv.repeats"] += 1
                self._mzv_seen.add(key)
            return repeats
        return None

    def _zero_check_factory(self, factory):
        counts = self.counts

        def make(*args, **kwargs):
            return self.span("numeric.zero_check", factory(*args, **kwargs),
                             after=lambda a, k, out: counts.update(
                                 {"numeric.zero_check.zero": int(bool(out))}))
        return make

    # -- installation ---------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = self.modules
        for mod, attr, name in SPANS:
            fn = getattr(mods[mod], attr)
            self._replace(mods[mod], attr,
                          self.span(name, fn, self._after(name, fn)))
        for mod, factory in ZERO_CHECK_FACTORIES:
            self._replace(mods[mod], factory, self._zero_check_factory(
                getattr(mods[mod], factory)))
        for mod, owner, attr, name in COUNTERS:
            target = mods[mod] if owner is None else getattr(mods[mod], owner)
            self._replace(target, attr,
                          self.counter(name, getattr(target, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- analysis -------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost calls only),
        self seconds; and self seconds per layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        incl = collections.Counter()
        self_s = collections.Counter()
        layer_self = collections.Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur
        return {"calls": calls, "incl": incl, "self": self_s,
                "layer_self": layer_self}
