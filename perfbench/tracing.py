"""Layer tracing from outside the program.

The tracer wraps public functions and methods of the kummer_spin modules
(one module = one layer) and records one span per call: target, start,
end, parent span, pass id and outcome.  Spans stay in memory until the
benchmark writes them out.  A layer's self time is the duration of its
spans minus the part covered by their direct children, so the self times
of all spans of a pass, the pass's root span included, add up to the
pass's duration.

A separate counter replaces ``Fraction.__new__`` to count rational
constructions exactly; it runs in its own passes so that its cost does
not land in the self times.
"""

import fractions
import functools
import importlib
import sys
import time

PACKAGE = "kummer_spin"

# layer -> {target: metric group or None}.  A target is a module-level
# function name or "Class.method".  Hot leaf helpers (act_vector,
# pairing_s, the spinor embeddings, element accessors) are left out: each
# is called hundreds of thousands of times per pass for well under a
# microsecond of work, so a wrapper would cost more than the call.
TARGETS = {
    "exact": {
        "_Matrix.__matmul__": "matmul",
        "_Matrix.apply": "apply",
        "_Matrix.det": None,
        "IntMatrix.to_rat": None,
        "RatMatrix.to_int": None,
        "RatMatrix.rref": "rref",
        "RatMatrix.inverse": "inverse",
        "RatMatrix.solve": None,
        "rational_kernel": "rational_kernel",
        "smith_normal_form": "snf",
        "integer_kernel": None,
        "is_rational_square": None,
    },
    "lattice": {
        "det_character": "characters",
        "chi_character": "characters",
        "ort_character": "characters",
        "discriminant_group": "discriminant_group",
        "reflection": None,
        "signed_reflection": None,
        "orthogonal_complement_basis": None,
        "sublattice": None,
        "IntLattice.positive_basis": None,
        "LatticeIsometry.__matmul__": None,
        "LatticeIsometry.inverse": None,
    },
    "clifford": {
        "group_flags": "group_flags",
        "tau": "tau",
        "alpha": None,
        "star": None,
        "parity_of": None,
        "clifford_embed": None,
        "wedge_matrix": None,
        "monomial_decompose": None,
        "monomial_recompose": None,
        "monomial_rank": None,
    },
    "triality": {
        "ax_product": "ax_product",
        "multiplication_operator": "mult_operator",
        "AXAutomorphism.inverse": "ax_inverse",
        "AXAutomorphism.is_algebra_automorphism": "automorphism_check",
        "AXAutomorphism.product_twist": "automorphism_check",
        "AXAutomorphism.__matmul__": None,
        "AXAutomorphism.apply": None,
        "AXAutomorphism.is_isometry": None,
        "AXAutomorphism.block_permutation": None,
        "mu_tilde": None,
        "m_tilde": None,
        "m_tilde_pair": None,
        "minus_one": None,
        "alpha_tilde_element": None,
        "tau_tilde": None,
        "build_j": None,
        "outer_j": None,
    },
    "fm": {
        "reflection_lift_identities": "reflection_lift",
        "verify_phi_p_identities": None,
        "verify_equivariance": None,
        "derivation_conjugation_identity": None,
        "verify_phi_f_action": None,
        "hat_c1_consistency": None,
        "phi_f_ax": None,
        "phi_f_spinor": None,
        "splus_of_ax": None,
        "transform_ax": None,
        "transform_matrix": None,
        "varphi_matrix": None,
        "iota_pd_matrix": None,
    },
    "stabilizer": {
        "sample_generators": "generators",
        "sl4_generator": "generators",
        "pair_reflection_generator": "generators",
        "h2_pair_generator": "generators",
        "tau_tilde_generator": "generators",
        "alpha_tilde_generator": "generators",
        "minus_one_generator": "generators",
        "word_generator": "generators",
        "mod_n_rep": "mod_n_rep",
        "StabilizerGenerator.perp_action": None,
        "StabilizerGenerator.orientation_sign": None,
        "gamma_w_cokernel": None,
        "stabilizer_v_actions": None,
        "wh_stabilizer_v_actions": None,
        "det_chi_report": None,
        "bbf_lattice": None,
        "random_sl4": None,
        "find_h2_with_square": None,
        "bivector_transvection": None,
    },
    "cayley": {
        "wedge4_matrix": "wedge4",
        "invariant_rank": "invariant_rank",
        "cayley_class": None,
        "fm_class": None,
        "kappa2": None,
        "c2_end": None,
        "c2_end_via_kappa": None,
        "ext_to_wedge4": None,
        "proportional": None,
    },
    "weil": {
        "weil_structure": None,
        "find_orthogonal_square_vectors": "search",
        "hermitian_and_discriminant": "discriminant",
        "random_weil_pair": None,
        "kahler_metric": None,
        "j_ell": None,
        "anticommute_check": None,
        "weil_multiplication_check": None,
        "hermitian_sesquilinear_check": None,
        "spin_wh_commutant_check": None,
    },
    "suites": {name: None for name in (
        "suite_clifford", "suite_triality", "suite_fm", "suite_stabilizer",
        "suite_modn", "suite_detchi", "suite_gamma", "suite_cayley",
        "suite_weil", "suite_discriminant")},
    "cli": {
        "main": None,
        "render_text": None,
        "render_json": None,
    },
}

LAYERS = tuple(TARGETS)

# The bounded randomized searches: an exhausted search raises
# SearchExhausted through these.  A search entered from inside another
# one (hermitian_and_discriminant calls find_orthogonal_square_vectors)
# is part of the outer attempt.
SEARCHES = frozenset({("weil", "find_orthogonal_square_vectors"),
                      ("weil", "hermitian_and_discriminant")})
EXHAUSTED = "SearchExhausted"
DEGENERATE = "d=0"

# weil_structure results with d == 0 are rejected by the sampling loops
DEGENERATE_SOURCE = ("weil", "weil_structure")

ROOT = -1  # key of the benchmark's own root span of a pass


def _degenerate(result):
    return DEGENERATE if getattr(result, "d", None) == 0 else None


class Span:
    __slots__ = ("key", "start", "end", "parent", "pass_id", "outcome")

    def __init__(self, key, parent, pass_id):
        self.key = key
        self.start = self.end = 0.0
        self.parent = parent
        self.pass_id = pass_id
        self.outcome = None

    def to_json(self, keys):
        name = "bench" if self.key == ROOT else "%s.%s" % keys[self.key]
        return {"name": name,
                "start": self.start, "end": self.end, "parent": self.parent,
                "pass": self.pass_id, "outcome": self.outcome}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts every original
    back.  Use as a context manager."""

    def __init__(self):
        self.clock = time.perf_counter
        self.keys = []          # key -> (layer, target)
        self.spans = []
        self.stack = [ROOT]     # open span indices; ROOT when none is open
        self.pass_id = None
        self.patched = []       # (owner, attribute, original)
        self.missing = []       # targets not found in the program

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, key, note=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            span = Span(key, stack[-1], self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.outcome = note(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, targets in TARGETS.items():
            module = importlib.import_module("%s.%s" % (PACKAGE, layer))
            for target in targets:
                key = len(self.keys)
                self.keys.append((layer, target))
                note = _degenerate if (layer, target) == DEGENERATE_SOURCE \
                    else None
                if "." in target:
                    cls_name, attr = target.split(".", 1)
                    cls = vars(module).get(cls_name)
                    raw = vars(cls).get(attr) \
                        if isinstance(cls, type) else None
                    if not callable(raw):
                        self.missing.append("%s.%s" % (layer, target))
                        continue
                    setattr(cls, attr, self.wrap(raw, key, note))
                    self.patched.append((cls, attr, raw))
                    continue
                fn = vars(module).get(target)
                if getattr(fn, "__module__", None) != module.__name__:
                    self.missing.append("%s.%s" % (layer, target))
                    continue
                wrapper = self.wrap(fn, key, note)
                # every namespace that imported the name with from-import
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            self.patched.append((mod, name, fn))

    def uninstall(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- passes ----------------------------------------------------------

    def run_pass(self, pass_id, fn):
        """Runs fn() under a root span; returns (result, seconds)."""
        self.pass_id = pass_id
        root = Span(ROOT, ROOT, pass_id)
        index = len(self.spans)
        self.spans.append(root)
        self.stack.append(index)
        root.start = self.clock()
        try:
            result = fn()
        finally:
            root.end = self.clock()
            self.stack.pop()
            self.pass_id = None
        return result, root.end - root.start


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent != ROOT:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _outermost_search(spans, i, keys):
    parent = spans[i].parent
    while parent != ROOT:
        if spans[parent].key != ROOT and keys[spans[parent].key] in SEARCHES:
            return False
        parent = spans[parent].parent
    return True


def summarize(spans, keys, pass_id):
    """Per-layer and per-group self times and counts for one pass.

    Returns (times, counts): times maps "layer.self_s",
    "layer.group.self_s" and "bench.self_s"/"pass_s" to seconds; counts
    maps "layer.calls", "layer.group.calls" and the weil search counts
    to integers.
    """
    times = {"bench.self_s": 0.0, "pass_s": 0.0}
    counts = {"weil.search.attempts": 0, "weil.search.exhausted": 0,
              "weil.degenerate_rejects": 0}
    for layer, targets in TARGETS.items():
        times[layer + ".self_s"] = 0.0
        counts[layer + ".calls"] = 0
        for group in set(targets.values()) - {None}:
            times["%s.%s.self_s" % (layer, group)] = 0.0
            counts["%s.%s.calls" % (layer, group)] = 0
    own = self_times(spans)
    for i, span in enumerate(spans):
        if span.pass_id != pass_id:
            continue
        if span.key == ROOT:
            times["bench.self_s"] += own[i]
            times["pass_s"] += span.end - span.start
            continue
        layer, target = keys[span.key]
        group = TARGETS[layer][target]
        times[layer + ".self_s"] += own[i]
        counts[layer + ".calls"] += 1
        if group is not None:
            name = "%s.%s" % (layer, group)
            times[name + ".self_s"] += own[i]
            counts[name + ".calls"] += 1
        if (layer, target) in SEARCHES and _outermost_search(spans, i, keys):
            counts["weil.search.attempts"] += 1
            if span.outcome == EXHAUSTED:
                counts["weil.search.exhausted"] += 1
        if span.outcome == DEGENERATE:
            counts["weil.degenerate_rejects"] += 1
    return times, counts


class FractionCounter:
    """Counts ``Fraction.__new__`` calls exactly while active."""

    def __init__(self):
        self.count = 0
        self._raw = None

    def __enter__(self):
        cls = fractions.Fraction
        self._raw = vars(cls)["__new__"]
        original = self._raw.__func__
        counter = self

        def counted_new(klass, *args, **kwargs):
            counter.count += 1
            return original(klass, *args, **kwargs)

        cls.__new__ = staticmethod(counted_new)
        return self

    def __exit__(self, *exc):
        fractions.Fraction.__new__ = self._raw
        return False
