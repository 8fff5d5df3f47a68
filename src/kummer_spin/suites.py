"""Named verification suites with deterministic seeding.

Each suite returns a SuiteReport whose check rows carry a stable name, the
reference label of the identity being exercised, a pass/fail/skipped
status and a short detail string.  Suites derive their randomness from
one seed split per suite name, so adding a suite never perturbs another's
samples.
"""

import json
import random
import time

from . import cayley as cayley_mod
from . import clifford as cl
from . import fm as fm_mod
from . import stabilizer as stab
from . import triality as tri
from . import weil as weil_mod
from .exact import IntMatrix, is_primitive
from .lattice import (chi_character, det_character, ort_character,
                      sample_accepted)


class CheckResult:
    __slots__ = ("name", "ref", "status", "detail")

    def __init__(self, name, ref, status, detail=""):
        self.name = name
        self.ref = ref
        self.status = status
        self.detail = detail

    def to_json(self):
        return {"name": self.name, "ref": self.ref,
                "status": self.status, "detail": self.detail}


class SuiteReport:
    __slots__ = ("suite", "seed", "checks", "elapsed_ms")

    def __init__(self, suite, seed):
        self.suite = suite
        self.seed = seed
        self.checks = []
        self.elapsed_ms = 0.0

    def add(self, name, ref, ok, detail=""):
        status = "pass" if ok else "fail"
        self.checks.append(CheckResult(name, ref, status, detail))

    def skip(self, name, ref, detail=""):
        self.checks.append(CheckResult(name, ref, "skipped", detail))

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        # elapsed is intentionally excluded: report bodies are byte-stable
        return {"suite": self.suite, "seed": self.seed,
                "checks": [c.to_json() for c in self.checks]}


def _rng(seed, suite):
    return random.Random("%d|%s" % (seed, suite))


def _diagonal(aut):
    """The 24 diagonal entries of an algebra automorphism's matrix."""
    return tuple(aut.matrix[k, k] for k in range(24))


def _json_vectors(vectors):
    """Compact sparse JSON rendering of rational coordinate vectors."""
    out = []
    for v in vectors:
        out.append({str(i): str(x) for i, x in enumerate(v) if x})
    return json.dumps(out, sort_keys=True)


# suite name -> {parameter: default}, in the order `verify all` runs them.
# A suite's keyword parameters are its command-line flags.
SUITES = {}


def _suite(fn):
    """Registers suite_<name> with its keyword defaults and times its calls."""
    SUITES[fn.__name__[len("suite_"):]] = fn.__kwdefaults__

    def wrapper(**params):
        t0 = time.monotonic()
        report = fn(**params)
        report.elapsed_ms = (time.monotonic() - t0) * 1000.0
        return report
    return wrapper


@_suite
def suite_clifford(*, seed=0):
    rep = SuiteReport("clifford", seed)
    rng = _rng(seed, "clifford")

    ok = True
    for i in range(8):
        for j in range(8):
            vi = tuple(int(a == i) for a in range(8))
            vj = tuple(int(a == j) for a in range(8))
            anti = cl.GEN_MATRICES[i] @ cl.GEN_MATRICES[j] \
                + cl.GEN_MATRICES[j] @ cl.GEN_MATRICES[i]
            if anti != IntMatrix.identity(16).scale(cl.v_pairing(vi, vj)):
                ok = False
    rep.add("clifford_relation_basis", "eq-defining-relation-of-Clifford-algebra",
            ok, "64 ordered basis pairs")

    ok = True
    for _ in range(200):
        v = tuple(rng.randint(-5, 5) for _ in range(8))
        w = tuple(rng.randint(-5, 5) for _ in range(8))
        mv, mw = cl.clifford_embed(v), cl.clifford_embed(w)
        if mv @ mw + mw @ mv != IntMatrix.identity(16).scale(cl.v_pairing(v, w)):
            ok = False
    rep.add("clifford_relation_random", "eq-defining-relation-of-Clifford-algebra",
            ok, "200 random pairs")

    rep.add("monomial_rank", "eq-m-from-C-V", cl.monomial_rank() == 256,
            "256 monomials independent")

    ok = True
    for _ in range(30):
        x = IntMatrix.identity(16)
        for _ in range(5):
            x = x @ cl.GEN_MATRICES[rng.randrange(8)]
        if cl.monomial_recompose(cl.monomial_decompose(x)) != x:
            ok = False
    rep.add("monomial_roundtrip", "eq-m-from-C-V", ok,
            "30 random generator products")

    ok = all(cl.tau(cl.monomial_matrix(m))
             == cl.monomial_matrix(m).scale(cl.tau_degree_sign(cl.degree(m)))
             for m in range(16))
    rep.add("tau_grading", "eq-tau", ok, "(-1)^(i(i-1)/2) on each degree")

    ok = True
    for _ in range(25):
        x = cl.clifford_embed(tuple(rng.randint(-3, 3) for _ in range(8)))
        y = cl.clifford_embed(tuple(rng.randint(-3, 3) for _ in range(8)))
        xy = x @ y
        if cl.tau(xy) != cl.tau(y) @ cl.tau(x):
            ok = False
        if cl.alpha(xy) != cl.alpha(x) @ cl.alpha(y):
            ok = False
        if cl.tau(cl.tau(xy)) != xy or cl.alpha(cl.alpha(xy)) != xy:
            ok = False
    rep.add("tau_alpha_laws", "eq-main-involution", ok,
            "anti/multiplicativity and involutivity")

    ok = True
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        s = tuple(rng.randint(-4, 4) for _ in range(16))
        t = tuple(rng.randint(-4, 4) for _ in range(16))
        q = cl.v_pairing(v, v) // 2
        if cl.pairing_s(cl.act_vector(v, s), cl.act_vector(v, t)) \
                != q * cl.pairing_s(s, t):
            ok = False
    rep.add("pairing_scaling", "eq-minus-1-vectors-do-not-act-via-"
            "isometries-on-spin-representation", ok, "50 random triples")

    from .lattice import reflection

    vlat = cl.v_lattice()
    ok = True
    for v in sample_accepted(
            lambda _: tuple(rng.randint(-3, 3) for _ in range(8)),
            lambda v: cl.v_pairing(v, v) in (2, -2), 50, "square +-2 vectors",
            20000):
        try:
            flags = cl.group_flags(cl.clifford_embed(v))
        except cl.NotInCliffordGroup:
            ok = False
            continue
        if flags.rho.scale(-1) != reflection(vlat, v).matrix:
            ok = False
        if cl.v_pairing(v, v) == -2 and not flags.in_pin:
            ok = False
    rep.add("pin_reflections", "eq-Pin-acts-by-reflections", ok,
            "50 square +-2 vectors")

    sn = cl.splus_embed(cl.mukai_triple(1, [0] * 6, -4))
    rep.add("mukai_square", "eq-Mukai-pairing", cl.pairing_s(sn, sn) == -8,
            "(1,0,-4) squares to -8")
    return rep


@_suite
def suite_triality(*, seed=0):
    rep = SuiteReport("triality", seed)
    rng = _rng(seed, "triality")
    j = tri.build_j()
    j3 = j @ j @ j
    rep.add("J3_identity", "thm-triality-principle", j3.matrix.is_identity())
    rep.add("J_isometry", "thm-triality-principle", j.is_isometry())
    rep.add("J_algebra_automorphism", "thm-triality-principle",
            j.is_algebra_automorphism(), "576 basis pairs")
    rep.add("J_block_permutation", "thm-triality-principle",
            j.block_permutation() == {"V": "S+", "S+": "S-", "S-": "V"})

    jinv = j.inverse()
    ok = True
    for k in range(8):
        x = tri.ax_element(v=tuple(int(i == k) for i in range(8)))
        lhs = tri.multiplication_operator(tuple(j.apply(x)))
        rhs = j.matrix @ tri.multiplication_operator(x) @ jinv.matrix
        if lhs != rhs:
            ok = False
    rep.add("m_J_conjugation", "eq-m-J-of-x", ok, "all 8 basis vectors")

    ok = True
    for _ in range(50):
        y1 = tuple(rng.randint(-3, 3) for _ in range(8))
        y2 = tuple(rng.randint(-3, 3) for _ in range(8))
        m1 = tri.multiplication_operator(tri.ax_element(s_plus=y1))
        m2 = tri.multiplication_operator(tri.ax_element(s_plus=y2))
        anti = m1 @ m2 + m2 @ m1
        pairing = cl.splus_pairing(y1, y2)
        for i in range(16):
            for jj in range(16):
                if anti[i, jj] != (pairing if i == jj else 0):
                    ok = False
    rep.add("anticommutator_law", "eq-composition-of-m-y-1-and-m-y-2", ok,
            "50 sampled pairs, anticommutator reading")

    minus_v_sminus = tri.ax_element((-1,) * 8, (-1,) * 8, (1,) * 8)
    ok = _diagonal(tri.mu_tilde(tri.alpha_tilde_element())) == minus_v_sminus
    rep.add("alpha_tilde_action", "eq-central-element-tilde-alpha", ok,
            "identity on S+, -1 on S- and V")

    signs = _diagonal(tri.tau_tilde())[tri.S_MINUS:]
    ok = signs == (1,) * 4 + (-1,) * 4 + (1,) + (-1,) * 6 + (1,)
    rep.add("tau_tilde_grading", "eq-tau-is-in-G-S-plus-even", ok,
            "grading signs on both spinor halves")

    got = tri.outer_j(IntMatrix.identity(16).scale(-1), j)
    ok = _diagonal(got) == minus_v_sminus
    rep.add("outer_j_center", "thm-triality-principle", ok,
            "twist of -1 is identity on S+, -1 on V+S-")
    return rep


@_suite
def suite_fm(*, seed=0):
    rep = SuiteReport("fm", seed)
    rng = _rng(seed, "fm")
    for name, ok, detail in fm_mod.verify_phi_p_identities():
        rep.add(name, "lemma-two-Poincare-dualities", ok, detail)
    rep.add("equivariance_sweep", "lemma-phi-P-is-Spin-Spin-equivariant",
            all(fm_mod.verify_equivariance()), "all 8 basis vectors")
    rep.add("derivation_conjugation", "lemma-conjugation-of-derivative-by-phi-P",
            fm_mod.derivation_conjugation_identity())
    ok = True
    for _ in range(5):
        f = fm_mod.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        for _name, good in fm_mod.verify_phi_f_action(f):
            ok = ok and good
    rep.add("tensorization_formulas", "lemma-tensorization-by-line-bundle-F",
            ok, "5 sampled bundles, three blocks")
    all_ok = {}
    for _ in range(20):
        f1 = fm_mod.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        f2 = fm_mod.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        for name, good in fm_mod.reflection_lift_identities(f1, f2):
            all_ok[name] = all_ok.get(name, True) and good
    for name, good in sorted(all_ok.items()):
        rep.add(name, name, good, "20 seeded line-bundle pairs")
    return rep


@_suite
def suite_stabilizer(*, n=3, samples=12, seed=0):
    rep = SuiteReport("stabilizer", seed)
    rng = _rng(seed, "stabilizer")
    fixes = True
    try:
        # constructors raise when a realization moves the stabilized class
        gens = stab.sample_generators(n, samples, rng)
        words = list(gens)
        for _ in range(samples):
            words.append(stab.word_generator(rng.sample(gens, 2), n))
    except ValueError:
        fixes = False
        words = []

    lat = stab.bbf_lattice(n)
    det_chi = isometry = spin_ort = fixes
    for g in words:
        iso = g.perp_action()
        if det_character(iso) * chi_character(lat, iso) != 1:
            det_chi = False
        if iso.matrix.transpose() @ lat.gram @ iso.matrix != lat.gram:
            isometry = False
    rep.add("generators_fix_class", "lemma-generators-for-stabilizer-in-G-V",
            fixes, "%d generators and words, n=%d" % (len(words), n))
    rep.add("det_chi_trivial", "thm-Mon-2", det_chi,
            "det*chi = +1 on all induced isometries")
    rep.add("induced_isometries", "lemma-generators-for-stabilizer-in-SO",
            isometry)

    for g in words:
        if g.kind in ("sl4", "pair_reflection"):
            if ort_character(lat, g.perp_action()) != 1:
                spin_ort = False
    rep.add("spin_kind_orientation", "lemma-spin-surjects", spin_ort,
            "spin-kind generators land in the orientation-preserving part")

    product_ok = True
    for g in rng.sample(words, min(4, len(words))):
        # sign-reversing elements twist exactly the pairing-dual component
        # by the orientation character; spin elements preserve everything
        if g.ax.product_twist() != g.orientation_sign():
            product_ok = False
    rep.add("algebra_product_preserved", "eq-representation-of-ker-N-on-A-X",
            product_ok,
            "sampled words, exhaustive basis pairs, orientation twist")

    so_plus_ok = bool(words)
    for _ in range(10 if words else 0):
        a = rng.choice(words)
        b = rng.choice(words)
        word = stab.word_generator([a, b], n)
        iso = word.perp_action()
        if det_character(iso) * chi_character(lat, iso) != 1:
            so_plus_ok = False
    rep.add("short_products_stay_in_kernel",
            "cor-SO-plus-of-direct-sums-of-hyperbolic-plane", so_plus_ok,
            "10 random two-letter words")
    return rep


@_suite
def suite_modn(*, n=3, seed=0):
    rep = SuiteReport("modn", seed)
    rng = _rng(seed, "modn")
    gens = stab.sample_generators(n, 10, rng)
    hom_ok = True
    for _ in range(100):
        a = rng.choice(gens)
        b = rng.choice(gens)
        ab = stab.word_generator([a, b], n)
        if stab.mod_n_rep(ab) != stab.mod_n_rep(a) @ stab.mod_n_rep(b):
            hom_ok = False
    rep.add("homomorphism", "eq-homomorphism-from-stabilizer-in-Spin-V-to-GL-4",
            hom_ok, "100 sampled pairs, n=%d" % n)

    invariance_ok = True
    for g in gens:
        try:
            stab.mod_n_rep(g)
        except ValueError:
            invariance_ok = False
    rep.add("dual_summand_invariant", "lemma-stabilizer-in-Spin-V-maps-to-GL-4",
            invariance_ok)

    sl4_ok = True
    for _ in range(10):
        m = stab.random_sl4(rng)
        rep_m = stab.mod_n_rep(stab.sl4_generator(m, n))
        if rep_m.data != tuple(tuple(x % n for x in row) for row in m.data):
            sl4_ok = False
    rep.add("sl4_literal_reduction", "lemma-stabilizer-of-H0-and-H4-is-SL-4",
            sl4_ok, "10 random SL4 words")
    return rep


@_suite
def suite_detchi(*, n=3, samples=8, seed=0):
    rep = SuiteReport("detchi", seed)
    for row in stab.det_chi_report(n, samples, seed):
        rep.add(*row)
    return rep


@_suite
def suite_gamma(*, n=3, seed=0):
    rep = SuiteReport("gamma", seed)
    factors, got_n = stab.gamma_w_cokernel(stab.s_n(n))
    rep.add("snf_factors", "rem-Z-w",
            factors == (1, 1, 1, 1, n, n, n, n),
            "factors %s for n=%d" % (list(factors), n))
    rep.add("adjoint_composite", "example-Clifford-multiplication-by-s-n",
            got_n == n, "m_w-adjoint o m_w = -n id (asserted in computation)")
    rng = _rng(seed, "gamma")
    ok = True
    for w in sample_accepted(
            lambda _: tuple(rng.randint(-3, 3) for _ in range(8)),
            lambda w: cl.splus_pairing(w, w) < -2 and is_primitive(w), 3,
            "primitive classes of square below -2", 20000):
        f2, n2 = stab.gamma_w_cokernel(w)
        if f2 != (1, 1, 1, 1, n2, n2, n2, n2):
            ok = False
    rep.add("general_primitive_classes", "rem-Z-w", ok,
            "3 sampled primitive classes of negative square")
    return rep


@_suite
def suite_cayley(*, n=3, seed=0, with_h=None):
    rep = SuiteReport("cayley", seed)
    rng = _rng(seed, "cayley")
    ok = all(
        cayley_mod.ext_to_wedge4(cayley_mod.c2_end(-cayley_mod.fm_class(m)))
        == cayley_mod.cayley_class(m)
        for m in range(2, 9))
    rep.add("cayley_equals_c2end", "prop-equation-for-Cayley-class", ok,
            "coordinate transport, n = 2..8")

    ok = all(
        cayley_mod.c2_end(-cayley_mod.fm_class(m))
        == cayley_mod.c2_end_via_kappa(-cayley_mod.fm_class(m))
        for m in range(2, 9))
    rep.add("dual_route_c2", "thm-kappa-class-is-non-zero-and-spin-7-invariant",
            ok, "kappa route vs direct expansion")

    actions = stab.stabilizer_v_actions(n, 24, rng)
    rank, basis = cayley_mod.invariant_rank(
        actions, expect_contains=cayley_mod.cayley_class(n))
    rep.add("invariant_rank", "prop-equation-for-Cayley-class", rank == 1,
            "rank %d from %d generators" % (rank, len(actions)))
    rep.add("kernel_basis", "prop-equation-for-Cayley-class", True,
            _json_vectors(basis))
    if rank == 1:
        rep.add("kernel_spanned_by_cayley", "prop-equation-for-Cayley-class",
                cayley_mod.proportional(basis[0], cayley_mod.cayley_class(n)))
    if with_h is not None:
        wh_actions = stab.wh_stabilizer_v_actions(n, with_h, 20, rng)
        rank3, _ = cayley_mod.invariant_rank(
            wh_actions, expect_contains=cayley_mod.cayley_class(n))
        rep.add("invariant_rank_with_h",
                "thm-hodge-classes-of-weil-type-are-algebraic", rank3 == 3,
                "rank %d from %d generators" % (rank3, len(wh_actions)))
    return rep


@_suite
def suite_weil(*, n=3, seed=0, h=None):
    rep = SuiteReport("weil", seed)
    rng = _rng(seed, "weil")
    w = stab.s_n(n)
    if h is None:
        h = cl.mukai_triple(0, (1, 0, 0, 0, 0, 1), 0)
    ws = weil_mod.weil_structure(w, h)

    ok = True
    for _ in range(20):
        w2, h2 = weil_mod.random_weil_pair(rng)
        ws2 = weil_mod.weil_structure(w2, h2)
        if ws2.theta_prime @ ws2.theta_prime \
                != IntMatrix.identity(8).scale(-ws2.d):
            ok = False
    rep.add("theta_prime_squares", "lemma-complex-multiplication", ok,
            "20 sampled pairs")

    ok = all(weil_mod.weil_multiplication_check(
        ws, rng.randint(-5, 5), rng.randint(-5, 5))
        for _ in range(20))
    rep.add("norm_compatibility", "cor-weil-type", ok,
            "20 sampled orders")

    rep.add("hermitian_sesquilinear", "eq-Hermetian-form",
            weil_mod.hermitian_sesquilinear_check(ws, rng))

    def kahler_triple(_):
        try:
            ws2 = weil_mod.weil_structure(
                *weil_mod.random_weil_pair(rng, n_max=6, k_max=6))
            u1, u2 = weil_mod.find_orthogonal_square_vectors(
                [ws2.w, ws2.h], (-2, -2), rng)
            weil_mod.kahler_metric(ws2, weil_mod.j_ell(u1, u2))
            return True
        except ValueError:
            return False

    oks = sample_accepted(kahler_triple, lambda _: True, 4,
                          "admissible (w, h, J) triples", 80)
    rep.add("kahler_definite", "prop-Theta-h-is-a-Kahler-form", all(oks),
            "%d admissible sampled triples" % len(oks))

    ok = True
    for _ in range(3):
        hh, hp, f = weil_mod.find_orthogonal_square_vectors(
            [w], (-2, -2, -2), rng)
        anti, same_metric = weil_mod.anticommute_check(w, hh, hp, f)
        ok = ok and anti and same_metric
    rep.add("anticommuting_periods", "prop-Theta-h-is-a-Kahler-form", ok,
            "orthogonal -2 triples; shared metric")

    actions = stab.wh_stabilizer_v_actions(n, tuple(h[1:7]), 5, rng) \
        if h[0] == 0 and h[7] == 0 else []
    if actions:
        rep.add("commutant_preserves_hermitian", "lemma-spin-w-h-preserves-H",
                all(weil_mod.spin_wh_commutant_check(actions, ws)),
                "5 sampled stabilizer elements")
    else:
        rep.skip("commutant_preserves_hermitian", "lemma-spin-w-h-preserves-H",
                 "no degree-two polarization supplied")
    return rep


@_suite
def suite_discriminant(*, n=3, seed=0):
    rep = SuiteReport("discriminant", seed)
    rng = _rng(seed, "discriminant")

    def certificate(_):
        ws = weil_mod.weil_structure(
            *weil_mod.random_weil_pair(rng, n_max=6, k_max=6))
        return weil_mod.hermitian_and_discriminant(ws, rng)

    certs = sample_accepted(certificate, lambda _: True, 3,
                            "trivial-discriminant certificates", 90)
    rep.add("constructive_basis", "lemma-trivial-discriminant",
            all(all(c.checks.values()) for c in certs),
            "%d certificates: %s" % (len(certs), "; ".join(
                "d=%d detPsi=%s" % (c.ws.d, c.det_psi) for c in certs)))
    wsn = weil_mod.weil_structure(stab.s_n(n),
                                  cl.mukai_triple(0, (1, 0, 0, 0, 0, 1), 0))
    cert = weil_mod.hermitian_and_discriminant(wsn, rng)
    rep.add("square_witness", "def-discriminant",
            cert.root is not None and cert.root * cert.root == cert.det_psi,
            json.dumps({"det_psi": str(cert.det_psi),
                        "root": str(cert.root),
                        "basis": [[str(c) for c in v] for v in cert.basis]},
                       sort_keys=True))
    rep.add("eta_involutions", "eq-eta-i-reverses-the-sgn-of-pairing-on-V",
            cert.checks.get("eta_involutions", False))
    rep.add("h_orthogonal_basis", "lemma-trivial-discriminant",
            cert.checks.get("basis_h_orthogonal", False))
    return rep
