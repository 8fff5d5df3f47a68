"""Acceptance gate: the eleven exit criteria at their stated sizes and
time budgets.  One printed pass/fail line per criterion; every check is
an exact integer or rational identity."""

import os
import random
import subprocess
import sys
import time

from kummer_spin import cayley as cayley_mod
from kummer_spin import clifford as cl
from kummer_spin import fm as fm_mod
from kummer_spin import stabilizer as stab
from kummer_spin import triality as tri
from kummer_spin import weil as weil_mod
from kummer_spin.exact import IntMatrix
from kummer_spin.lattice import (
    chi_character,
    det_character,
    discriminant_group,
    reflection,
    signed_reflection,
)


def report(number, description, ok, elapsed, limit):
    verdict = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d: %s -- %s (%.2fs, budget %ds)"
          % (number, verdict, description, elapsed, limit))
    assert ok, "criterion %d failed: %s" % (number, description)
    assert elapsed < limit, "criterion %d exceeded %ds (%.2fs)" \
        % (number, limit, elapsed)


def test_criterion_1_clifford_foundation():
    t0 = time.monotonic()
    ok = True
    for i in range(8):
        for j in range(8):
            vi = tuple(int(a == i) for a in range(8))
            vj = tuple(int(a == j) for a in range(8))
            anti = cl.GEN_MATRICES[i] @ cl.GEN_MATRICES[j] \
                + cl.GEN_MATRICES[j] @ cl.GEN_MATRICES[i]
            ok &= anti == IntMatrix.identity(16).scale(cl.v_pairing(vi, vj))
    rng = random.Random(1)
    for _ in range(1000):
        v = tuple(rng.randint(-5, 5) for _ in range(8))
        w = tuple(rng.randint(-5, 5) for _ in range(8))
        mv, mw = cl.clifford_embed(v), cl.clifford_embed(w)
        ok &= mv @ mw + mw @ mv == \
            IntMatrix.identity(16).scale(cl.v_pairing(v, w))
    ok &= cl.monomial_rank() == 256
    for _ in range(100):
        x = IntMatrix.identity(16)
        for _ in range(5):
            x = x @ cl.GEN_MATRICES[rng.randrange(8)]
        ok &= cl.monomial_recompose(cl.monomial_decompose(x)) == x
    report(1, "Clifford relation, monomial independence, round-trips",
           ok, time.monotonic() - t0, 5)


def test_criterion_2_tau_alpha_characters():
    t0 = time.monotonic()
    rng = random.Random(2)
    ok = all(cl.tau(cl.GEN_MATRICES[k]) == cl.GEN_MATRICES[k] for k in range(8))
    ok &= all(
        cl.tau(cl.monomial_matrix(m))
        == cl.monomial_matrix(m).scale(cl.tau_degree_sign(cl.degree(m)))
        for m in range(16))
    for _ in range(50):
        x = cl.clifford_embed(tuple(rng.randint(-3, 3) for _ in range(8)))
        y = cl.clifford_embed(tuple(rng.randint(-3, 3) for _ in range(8)))
        ok &= cl.tau(x @ y) == cl.tau(y) @ cl.tau(x)
    # N and ort multiplicative on 200 sampled group elements
    elements = []
    while len(elements) < 100:
        x = IntMatrix.identity(16)
        for _ in range(rng.randint(1, 3)):
            while True:
                v = tuple(rng.randint(-2, 2) for _ in range(8))
                if cl.v_pairing(v, v) in (2, -2):
                    break
            x = x @ cl.clifford_embed(v)
        elements.append(x)
    pairs = 0
    while pairs < 200:
        a = rng.choice(elements)
        b = rng.choice(elements)
        pairs += 1
        fa, fb, fab = cl.group_flags(a), cl.group_flags(b), cl.group_flags(a @ b)
        ok &= fab.norm == fa.norm * fb.norm
        ok &= fab.orientation == fa.orientation * fb.orientation
    vlat = cl.v_lattice()
    found = 0
    while found < 100:
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        if cl.v_pairing(v, v) not in (2, -2):
            continue
        found += 1
        flags = cl.group_flags(cl.clifford_embed(v))
        ok &= flags.rho.scale(-1) == reflection(vlat, v).matrix
    report(2, "tau/alpha laws, N and ort multiplicativity, Pin reflections",
           ok, time.monotonic() - t0, 5)


def test_criterion_3_triality():
    t0 = time.monotonic()
    j = tri.build_j()
    ok = (j @ j @ j).matrix.is_identity()
    ok &= j.is_isometry()
    ok &= j.is_algebra_automorphism()  # all 24x24 basis pairs
    ok &= j.block_permutation() == {"V": "S+", "S+": "S-", "S-": "V"}
    jinv = j.inverse()
    for k in range(8):
        x = tri.ax_element(v=tuple(int(i == k) for i in range(8)))
        lhs = tri.multiplication_operator(tuple(j.apply(x))).to_rat()
        rhs = j.matrix.to_rat() @ tri.multiplication_operator(x).to_rat() \
            @ jinv.matrix.to_rat()
        ok &= lhs == rhs
    report(3, "order-3 symmetry: J^3, isometry, product preservation, "
           "multiplication conjugation", ok, time.monotonic() - t0, 5)


def test_criterion_4_fm_identities():
    t0 = time.monotonic()
    ok = all(good for _name, good, _detail in fm_mod.verify_phi_p_identities())
    ok &= all(fm_mod.verify_equivariance())
    ok &= fm_mod.derivation_conjugation_identity()
    rng = random.Random(4)
    for _ in range(20):
        f1 = fm_mod.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        f2 = fm_mod.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        for _name, good in fm_mod.reflection_lift_identities(f1, f2):
            ok &= good
    report(4, "duality lemmas, equivariance, reflection lifts for 20 "
           "seeded bundles", ok, time.monotonic() - t0, 10)


def test_criterion_5_stabilizer_characters():
    t0 = time.monotonic()
    ok = True
    details = []
    for n in (3, 4, 5):
        rng = random.Random(50 + n)
        lat = stab.bbf_lattice(n)
        disc = discriminant_group(lat)
        gens = stab.sample_generators(n, 10, rng)
        words = list(gens)
        for _ in range(10):
            words.append(stab.word_generator(rng.sample(gens, 2), n))
        for g in words:
            # construction asserts the class is fixed
            iso = g.perp_action()
            ok &= det_character(iso) * chi_character(lat, iso) == 1
        found = 0
        while found < 50:
            coords = tuple(rng.randint(-3, 3) for _ in range(7))
            uu = lat.square(coords)
            if uu not in (2, -2):
                continue
            found += 1
            r = signed_reflection(lat, coords)
            ok &= det_character(r) == uu // 2
            ok &= chi_character(lat, r) == -uu // 2
        details.append("n=%d disc order %d (formula 2dim+2: %d)"
                       % (n, disc.order, 4 * n - 2))
    report(5, "stabilizer det*chi and reflection characters; %s"
           % "; ".join(details), ok, time.monotonic() - t0, 10)


def test_criterion_6_mod_n_representation():
    t0 = time.monotonic()
    rng = random.Random(6)
    n = 5
    gens = stab.sample_generators(n, 10, rng)
    ok = True
    for _ in range(100):
        a = rng.choice(gens)
        b = rng.choice(gens)
        ab = stab.word_generator([a, b], n)
        ok &= stab.mod_n_rep(ab) == stab.mod_n_rep(a) @ stab.mod_n_rep(b)
    for g in gens:
        stab.mod_n_rep(g)  # raises if the dual summand is not invariant
    for _ in range(10):
        m = stab.random_sl4(rng)
        ok &= stab.mod_n_rep(stab.sl4_generator(m, n)).data \
            == tuple(tuple(x % n for x in row) for row in m.data)
    report(6, "mod-n representation: homomorphism, invariance, literal "
           "SL4 reduction", ok, time.monotonic() - t0, 5)


def test_criterion_7_gamma_cokernel():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 9):
        factors, got_n = stab.gamma_w_cokernel(stab.s_n(n))
        ok &= got_n == n and factors == (1, 1, 1, 1, n, n, n, n)
    report(7, "cokernel factors (1^4, n^4) and adjoint law, n = 2..8",
           ok, time.monotonic() - t0, 2)


def test_criterion_8_cayley():
    t0 = time.monotonic()
    ok = all(
        cayley_mod.ext_to_wedge4(cayley_mod.c2_end(-cayley_mod.fm_class(n)))
        == cayley_mod.cayley_class(n)
        for n in range(2, 9))
    n = 3
    rng = random.Random(8)
    actions = stab.stabilizer_v_actions(n, 24, rng)
    rank, basis = cayley_mod.invariant_rank(
        actions, expect_contains=cayley_mod.cayley_class(n))
    ok &= rank == 1
    ok &= cayley_mod.proportional(basis[0], cayley_mod.cayley_class(n))
    wh_actions = stab.wh_stabilizer_v_actions(n, (1, 0, 0, 0, 0, 1), 20, rng)
    rank3, _basis3 = cayley_mod.invariant_rank(
        wh_actions, expect_contains=cayley_mod.cayley_class(n))
    ok &= rank3 == 3
    report(8, "invariant class equals endomorphism c2 (n=2..8); fixed-space "
           "ranks 1 and 3", ok, time.monotonic() - t0, 30)


def test_criterion_9_weil():
    t0 = time.monotonic()
    rng = random.Random(9)
    ok = True
    for _ in range(50):
        w, h = weil_mod.random_weil_pair(rng)
        ws = weil_mod.weil_structure(w, h)
        ok &= ws.theta_prime @ ws.theta_prime \
            == IntMatrix.identity(8).scale(-ws.d)
    ws = weil_mod.weil_structure(stab.s_n(3),
                                 cl.mukai_triple(0, (1, 0, 0, 0, 0, 1), 0))
    for _ in range(20):
        ok &= weil_mod.weil_multiplication_check(
            ws, rng.randint(-5, 5), rng.randint(-5, 5))
    done = 0
    while done < 10:
        try:
            w2, h2 = weil_mod.random_weil_pair(rng, n_max=6, k_max=6)
            ws2 = weil_mod.weil_structure(w2, h2)
            if ws2.d == 0:
                continue
            u1, u2 = weil_mod.find_orthogonal_square_vectors(
                [w2, h2], (-2, -2), rng, per_level=4)
            _g, sign = weil_mod.kahler_metric(ws2, weil_mod.j_ell(u1, u2))
            ok &= sign in (1, -1)
            done += 1
        except weil_mod.SearchExhausted:
            continue
    done = 0
    while done < 10:
        try:
            hh, hp, f = weil_mod.find_orthogonal_square_vectors(
                [stab.s_n(3)], (-2, -2, -2), rng, per_level=4)
        except weil_mod.SearchExhausted:
            continue
        anti, same_metric = weil_mod.anticommute_check(stab.s_n(3), hh, hp, f)
        ok &= anti and same_metric
        done += 1
    report(9, "complex multiplication, norm compatibility, Kahler "
           "definiteness, anticommuting periods with shared metric",
           ok, time.monotonic() - t0, 10)


def test_criterion_10_discriminant():
    t0 = time.monotonic()
    rng = random.Random(10)
    ok = True
    done = 0
    tried = 0
    while done < 10 and tried < 300:
        tried += 1
        try:
            w, h = weil_mod.random_weil_pair(rng, n_max=6, k_max=6)
            ws = weil_mod.weil_structure(w, h)
            if ws.d == 0:
                continue
            cert = weil_mod.hermitian_and_discriminant(ws, rng)
        except weil_mod.SearchExhausted:
            continue
        done += 1
        ok &= all(cert.checks.values())
        ok &= cert.checks["basis_h_orthogonal"]
        ok &= cert.checks["det_is_rational_square"]
        ok &= cert.root is not None and cert.root * cert.root == cert.det_psi
    ok &= done >= 10
    report(10, "constructive trivial-discriminant basis for %d seeded pairs"
           % done, ok, time.monotonic() - t0, 30)


def test_criterion_11_cli_determinism():
    t0 = time.monotonic()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "kummer_spin.cli",
           "verify", "all", "--n", "4", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout
    ok &= len(first.stdout) > 0
    report(11, "verify all --n 4 --seed 7 byte-stable and exit 0",
           ok, time.monotonic() - t0, 120)
