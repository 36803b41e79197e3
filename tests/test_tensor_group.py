import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussrough import (
    GroupElement,
    LieElement,
    TensorElement,
    bracket_iij_tensor,
    dilate,
    dist,
    exp,
    hom_norm,
    identity,
    increment,
    inverse,
    is_group_like,
    lie_from_vector,
    log,
    max_abs_diff,
    mul,
    shuffle_defect,
    unit,
)
from gaussrough.tensor_group import group_norm_levels
from conftest import assert_elements_close, bracket_triple, random_group, random_lie

TOL = 1e-12
SHUFFLE_TOL = 1e-9


def test_mul_d1_depth2_example():
    a = TensorElement(1, 2, (1.0, np.array([2.0]), np.zeros((1, 1))))
    b = TensorElement(1, 2, (1.0, np.array([3.0]), np.zeros((1, 1))))
    c = mul(a, b)
    assert c.scalar == 1.0
    assert c.levels[1][0] == 5.0
    assert c.levels[2][0, 0] == 6.0


def test_exp_d1_closed_form():
    g = exp(lie_from_vector(np.array([0.7])))
    assert abs(g.levels[1][0] - 0.7) <= TOL
    assert abs(g.levels[2][0, 0] - 0.7**2 / 2) <= TOL
    assert abs(g.levels[3][0, 0, 0] - 0.7**3 / 6) <= TOL


def test_log_of_level1_exp_is_exact():
    v = np.array([1.3, -0.4, 0.2])
    l = log(exp(lie_from_vector(v)))
    assert np.max(np.abs(l.levels[1] - v)) <= TOL
    assert np.max(np.abs(l.levels[2])) <= TOL
    assert np.max(np.abs(l.levels[3])) <= TOL


def test_unit_is_neutral(rng):
    for d in (1, 2, 4):
        g = random_group(rng, d)
        e = identity(d, 3)
        assert_elements_close(mul(e, g), g, TOL, "left unit")
        assert_elements_close(mul(g, e), g, TOL, "right unit")


def test_associativity(rng):
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a, b, c = (random_group(rng, d) for _ in range(3))
        assert_elements_close(mul(mul(a, b), c), mul(a, mul(b, c)), TOL, "associativity")


def test_inverse_and_group_axioms(rng):
    for _ in range(100):
        d = int(rng.integers(1, 5))
        g = random_group(rng, d)
        h = random_group(rng, d)
        e = identity(d, 3)
        assert_elements_close(mul(g, inverse(g)), e, TOL, "right inverse")
        assert_elements_close(mul(inverse(g), g), e, TOL, "left inverse")
        assert_elements_close(inverse(mul(g, h)), mul(inverse(h), inverse(g)), TOL, "antihomomorphism")


def test_inverse_matches_exp_of_negated_log(rng):
    for _ in range(50):
        g = random_group(rng, 3)
        l = log(g)
        neg = LieElement(3, 3, tuple(-lv for lv in l.levels))
        assert_elements_close(inverse(g), exp(neg), TOL, "inverse vs exp(-log)")


def test_exp_log_round_trips(rng):
    for _ in range(100):
        d = int(rng.integers(1, 5))
        l = random_lie(rng, d, scale=float(rng.uniform(0.2, 1.5)))
        assert_elements_close(log(exp(l)), l, TOL, "log(exp(l))")
        g = random_group(rng, d)
        assert_elements_close(exp(log(g)), g, TOL, "exp(log(g))")


def test_inverse_of_level1_exp():
    v = np.array([0.5, -1.0])
    assert_elements_close(inverse(exp(lie_from_vector(v))), exp(lie_from_vector(-v)), TOL)


def test_increment_examples(rng):
    g = random_group(rng, 2)
    h = random_group(rng, 2)
    assert_elements_close(increment(g, g), identity(2, 3), TOL, "self increment")
    assert_elements_close(increment(identity(2, 3), h), h, TOL, "increment from e")
    assert_elements_close(mul(g, increment(g, h)), h, TOL, "increment composes")


def test_dilate_zero_gives_identity(rng):
    g = random_group(rng, 3)
    assert_elements_close(dilate(0.0, g), identity(3, 3), 0.0, "dilate(0)")


def test_dilate_is_morphism(rng):
    for lam in (-1.0, 0.5, 2.0):
        g = random_group(rng, 2)
        h = random_group(rng, 2)
        assert_elements_close(dilate(lam, mul(g, h)), mul(dilate(lam, g), dilate(lam, h)), TOL)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(-3.0, 3.0, allow_nan=False))
def test_dilation_homogeneity_of_norm(lam):
    rng = np.random.default_rng(7)
    g = random_group(rng, 3)
    assert abs(hom_norm(dilate(lam, g)) - abs(lam) * hom_norm(g)) <= 1e-10 * max(1.0, hom_norm(g))


def test_hom_norm_of_level1_exp_is_euclidean():
    # exp((3,4)): degree-1 part dominates the rebalanced higher degrees.
    g = exp(lie_from_vector(np.array([3.0, 4.0])))
    assert abs(hom_norm(g) - 5.0) <= TOL


@pytest.mark.parametrize("j", [-300, -200, 200, 300])
def test_hom_norm_homogeneous_at_extreme_dilations(j):
    # Level 3 sets the norm, and after dilation by 2^j its coordinates have
    # size about 2^(3j), whose squares are outside the float range.  The
    # cube root x ** (1/3) uses fl(1/3) = 1/3 - 1.85e-17, which alone moves
    # the norm of 2^(3j) x by a relative 3|j| ln(2) 1.85e-17: 1.2e-14 at
    # |j| = 300.
    b = bracket_iij_tensor(0, 1, 2)
    g = exp(LieElement(2, 3, (b.levels[0], np.array([1e-3, -5e-4]), b.levels[2], 5.0 * b.levels[3])))
    norm = hom_norm(g)
    assert norm > 100.0 * np.linalg.norm(g.levels[1])
    image = 2.0**j * norm
    assert abs(hom_norm(dilate(2.0**j, g)) - image) <= 2e-14 * image


def test_hom_norm_symmetric_under_inverse(rng):
    for _ in range(50):
        g = random_group(rng, 3)
        assert abs(hom_norm(g) - hom_norm(inverse(g))) <= TOL


def test_dist_left_invariant(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        g, h, k = (random_group(rng, d) for _ in range(3))
        assert abs(dist(mul(k, g), mul(k, h)) - dist(g, h)) <= 1e-10
    # Degree-3 rounding of order eps enters the norm through a cube root, so
    # the self-distance floor is ~eps^(1/3), not eps.
    assert dist(g, g) <= 1e-5


def test_dist_symmetric(rng):
    g = random_group(rng, 2)
    h = random_group(rng, 2)
    assert abs(dist(g, h) - dist(h, g)) <= TOL


def test_shuffle_relations_on_exp(rng):
    for _ in range(100):
        d = int(rng.integers(1, 5))
        g = random_group(rng, d)
        assert shuffle_defect(g) <= SHUFFLE_TOL
        assert is_group_like(g)


def test_shuffle_detects_non_group_like():
    bad = TensorElement(2, 3, (1.0, np.array([1.0, 0.0]), np.eye(2), np.zeros((2, 2, 2))))
    assert shuffle_defect(bad) > 0.1
    assert not is_group_like(bad)


@pytest.mark.parametrize("k", [-20, 20])
def test_is_group_like_scale_free(rng, k):
    # Dilation by 2^k scales degree m by 2^(km) exactly, so the answer must
    # not change: an absolute tolerance rejects the large element and accepts
    # the small non-group-like one.
    bad = TensorElement(2, 3, (1.0, np.array([1.0, 0.0]), np.eye(2), np.zeros((2, 2, 2))))
    assert not is_group_like(dilate(2.0**k, bad))
    for _ in range(20):
        g = random_group(rng, int(rng.integers(1, 5)))
        assert is_group_like(dilate(2.0**k, g))


def test_bracket_iij_entries():
    b = bracket_iij_tensor(0, 1, 3)
    cube = b.levels[3]
    assert cube[0, 0, 1] == 1.0
    assert cube[0, 1, 0] == -2.0
    assert cube[1, 0, 0] == 1.0
    assert np.count_nonzero(cube) == 3
    assert np.max(np.abs(b.levels[1])) == 0.0
    assert np.max(np.abs(b.levels[2])) == 0.0


def test_bracket_iij_matches_triple_bracket():
    for d in (2, 3):
        for i in range(d):
            for j in range(d):
                if i != j:
                    expected = bracket_triple(i, i, j, d)
                    got = bracket_iij_tensor(i, j, d).levels[3]
                    assert np.array_equal(got, expected)


def test_bracket_contracts_to_zero_against_symmetric():
    b = bracket_iij_tensor(0, 1, 2).levels[3]
    sym = np.zeros((2, 2, 2))
    v = np.array([0.3, -0.7])
    sym += np.einsum("i,j,k->ijk", v, v, v)
    assert abs(np.sum(b * sym)) <= TOL


def test_exp_of_bracket_is_group_like():
    b = bracket_iij_tensor(1, 0, 2)
    scaled = LieElement(2, 3, (b.levels[0], b.levels[1], b.levels[2], 0.3 * b.levels[3]))
    assert is_group_like(exp(scaled))


def test_bracket_rejects_equal_indices():
    with pytest.raises(ValueError):
        bracket_iij_tensor(1, 1, 2)


def test_scalar_part_validation():
    v = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        exp(TensorElement(2, 3, (0.5, v, np.zeros((2, 2)), np.zeros((2, 2, 2)))))
    with pytest.raises(ValueError):
        log(TensorElement(2, 3, (0.0, v, np.zeros((2, 2)), np.zeros((2, 2, 2)))))
    with pytest.raises(ValueError):
        GroupElement(2, 3, (0.0, v, np.zeros((2, 2)), np.zeros((2, 2, 2))))


def test_lie_antisymmetry_validation():
    with pytest.raises(ValueError):
        LieElement(2, 2, (0.0, np.zeros(2), np.eye(2)))


def test_shape_validation():
    with pytest.raises(ValueError):
        TensorElement(2, 2, (1.0, np.zeros(3), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        TensorElement(2, 4, (1.0,) + tuple(np.zeros((2,) * k) for k in range(1, 5)))


def test_incompatible_elements_rejected(rng):
    with pytest.raises(ValueError):
        mul(random_group(rng, 2), random_group(rng, 3))


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-2.0, 2.0, allow_nan=False))
def test_d1_exp_log_closed_form(a):
    g = exp(lie_from_vector(np.array([a])))
    assert abs(g.levels[3][0, 0, 0] - a**3 / 6) <= 1e-12
    l = log(g)
    assert abs(l.levels[1][0] - a) <= 1e-12


def test_hom_norm_subadditive_with_recorded_constant(rng):
    # The per-level Euclidean max norm obeys |pi_k(g h)| <= (a + b)^k term by
    # term (binomial domination), so the recorded constant is 1; the aligned
    # scalar case attains it, so nothing smaller can work.
    import json
    from pathlib import Path

    c_sub = json.loads(
        (Path(__file__).parent / "fixtures" / "calibration.json").read_text()
    )["hom_norm"]["subadditivity_constant"]
    hit_near_one = False
    for _ in range(2000):
        d = int(rng.integers(1, 5))
        g = random_group(rng, d, scale=float(np.exp(rng.uniform(-3, 3))))
        h = random_group(rng, d, scale=float(np.exp(rng.uniform(-3, 3))))
        ratio = hom_norm(mul(g, h)) / (hom_norm(g) + hom_norm(h))
        assert ratio <= c_sub + 1e-9
        hit_near_one = hit_near_one or ratio > 0.9
    assert hit_near_one


def _group_batch(rng, d, shape):
    # Level-stacked random group elements of mixed sizes, batch axes first.
    elements = [
        random_group(rng, d, scale=float(np.exp(rng.uniform(-3, 3))))
        for _ in range(int(np.prod(shape)))
    ]
    return [np.reshape([g.levels[k] for g in elements], shape + (d,) * k) for k in range(4)]


def _scaled_norm_reference(g):
    # Every level divided by the power of two of its largest coordinate
    # before it is squared, tensor axes last: the norm taken on every entry.
    best = np.zeros(np.shape(g[1])[:-1])
    for k, lv in enumerate(g[1:], start=1):
        axes = tuple(range(lv.ndim - k, lv.ndim))
        exp2 = np.frexp(np.max(np.abs(lv), axis=axes, keepdims=True))[1]
        unit = np.ldexp(np.abs(lv), -exp2)
        norm = np.ldexp(np.sqrt(np.sum(unit * unit, axis=axes)), np.squeeze(exp2, axes))
        best = np.maximum(best, norm ** (1.0 / k))
    return best


@pytest.mark.parametrize("shape", [(), (200,), (5, 7)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_group_norm_levels_equals_scaled_reference_at_unit_scale(d, shape):
    # Scaling by a power of two commutes exactly with squaring, summing and
    # sqrt, so the norm from plain squares has the reference's bits.
    rng = np.random.default_rng(24 + d)
    for _ in range(3):
        g = _group_batch(rng, d, shape)
        norm = group_norm_levels(g)
        assert norm.shape == shape
        assert np.array_equal(norm, _scaled_norm_reference(g))


def test_group_norm_levels_mixed_scale_batch():
    # Elements dilated by 2^300 have level-3 squares beyond the float range,
    # and by 2^-300 a norm below 2^-170: only those entries of the 2-D batch
    # are redone, and the unit entries keep their bits.
    rng = np.random.default_rng(2400)
    g = _group_batch(rng, 3, (5, 7))
    j = rng.choice([-300, 0, 300], size=(5, 7))
    assert {-300, 0, 300} <= set(j.ravel().tolist())
    dilated = [lv * 2.0 ** (k * j).reshape((5, 7) + (1,) * k) for k, lv in enumerate(g)]
    norm, unit_norm = group_norm_levels(dilated), group_norm_levels(g)
    at_unit = j == 0
    assert np.array_equal(norm[at_unit], unit_norm[at_unit])
    image = np.ldexp(unit_norm[~at_unit], j[~at_unit])
    assert np.all(np.abs(norm[~at_unit] - image) <= 1e-12 * image)
