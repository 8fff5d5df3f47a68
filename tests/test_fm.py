"""Cohomological auto-equivalence actions and the duality sign bookkeeping."""

import random

from kummer_spin.clifford import ALL, degree, merge_sign, mukai_triple
from kummer_spin.fm import (
    LineBundleClass,
    derivation_conjugation_identity,
    hat_c1_consistency,
    iota_pd,
    iota_pd_matrix,
    phi_f_ax,
    reflection_lift_identities,
    splus_of_ax,
    transform_ax,
    transform_matrix,
    verify_equivariance,
    verify_phi_f_action,
    verify_phi_p_identities,
)


def test_phi_f_sends_unit_to_chern_character():
    f = LineBundleClass((1, 0, 0, 0, 0, 0))  # c1 = e1^e2
    aut = phi_f_ax(f)
    unit = (1, 0, 0, 0, 0, 0, 0, 0)
    mukai_vector = mukai_triple(1, f.c1, f.c1_square_half())
    assert splus_of_ax(aut, unit) == mukai_vector
    assert mukai_vector == (1, 1, 0, 0, 0, 0, 0, 0)  # c1^2/2 = 0 here
    g = LineBundleClass((1, 0, 0, 0, 0, 1))
    assert mukai_triple(1, g.c1, g.c1_square_half()) == (1, 1, 0, 0, 0, 0, 1, 1)


def test_phi_f_action_on_v_example():
    # theta = e1*, c1 = e1^e2: V-action sends (0, e1*) to (-e2, e1*)
    f = LineBundleClass((1, 0, 0, 0, 0, 0))
    mat = phi_f_ax(f).matrix
    col = [mat[i, 4] for i in range(8)]
    assert col == [0, -1, 0, 0, 1, 0, 0, 0]


def test_phi_f_closed_formulas():
    rng = random.Random(8)
    for _ in range(5):
        f = LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        for name, ok in verify_phi_f_action(f):
            assert ok, name


def test_phi_f_closed_formulas_reject_doubled_c1(monkeypatch):
    # tensorization built from the class of the bundle with c1 doubled:
    # the S+ and S- rows compare against c1 itself, so both must fail
    original = LineBundleClass.chern_character
    monkeypatch.setattr(
        LineBundleClass, "chern_character",
        lambda self: original(LineBundleClass(tuple(2 * c for c in self.c1))))
    rng = random.Random(8)
    for _ in range(3):
        f = LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        if not any(f.c1):
            continue
        rows = dict(verify_phi_f_action(f))
        assert not rows["phi-F-on-S-plus"]
        assert not rows["phi-F-on-S-minus"]


def test_phi_f_group_law():
    f = LineBundleClass((2, -1, 0, 1, 0, 1))
    f_inverse = LineBundleClass(tuple(-c for c in f.c1))
    composed = phi_f_ax(f) @ phi_f_ax(f_inverse)
    assert composed.matrix.is_identity()


def test_phi_p_identities():
    for name, ok, detail in verify_phi_p_identities():
        assert ok, (name, detail)


def test_varphi_equivariance_full_sweep():
    assert all(verify_equivariance())


def test_derivation_conjugation():
    assert derivation_conjugation_identity()


def test_transform_ax_is_isometry():
    t = transform_ax()
    assert t.is_isometry()


def test_iota_pd_basics():
    e1 = tuple(int(m == 1) for m in range(16))
    assert iota_pd(e1) == tuple(int(m == 0b1110) for m in range(16))


def test_complement_maps_entry_by_entry():
    # iota . PD sends e_a to the complement with the Poincare sign; the
    # transform twists it by (-1)^(i(i+1)/2) on degree i
    ipd, phi = iota_pd_matrix(), transform_matrix()
    rng = random.Random(12)
    for a in range(16):
        sign = merge_sign(a, ALL ^ a)
        twist = (1, -1, -1, 1)[degree(a) % 4]
        assert ipd.column(a) == tuple(sign * (m == ALL ^ a) for m in range(16))
        assert phi.column(a) == tuple(twist * x for x in ipd.column(a))
    for _ in range(10):
        v = tuple(rng.randint(-3, 3) for _ in range(16))
        assert iota_pd(v) == tuple(merge_sign(ALL ^ b, b) * v[ALL ^ b]
                                   for b in range(16))


def test_hat_bundle_c1():
    rng = random.Random(10)
    for _ in range(10):
        f = LineBundleClass(tuple(rng.randint(-3, 3) for _ in range(6)))
        assert hat_c1_consistency(f)


def test_reflection_lifts_trivial_bundles():
    trivial = LineBundleClass((0,) * 6)
    for name, ok in reflection_lift_identities(trivial, trivial):
        assert ok, name


def test_reflection_lifts_e1e2():
    f = LineBundleClass((1, 0, 0, 0, 0, 0))
    for name, ok in reflection_lift_identities(f, f):
        assert ok, name


def test_reflection_lifts_seeded_bundles():
    rng = random.Random(2024)
    for _ in range(20):
        f1 = LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        f2 = LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        for name, ok in reflection_lift_identities(f1, f2):
            assert ok, name
