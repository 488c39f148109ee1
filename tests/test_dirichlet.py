"""Tests for graph Dirichlet spaces: construction, norms, semigroup,
Gamma-transform, dual norms, subordination and operator norms."""

import math

import numpy as np
import pytest

from graphspde.dirichlet import (
    BernsteinFunction,
    DirichletSpace,
    SpaceError,
    build_graph_space,
    complete_space,
    gamma_transform_quadrature,
    path_space,
    single_node_space,
    subordinate,
)
from oracles import sampled_space_invariants

RNG = np.random.default_rng(20240817)


@pytest.fixture(scope="module")
def single():
    return single_node_space()


@pytest.fixture(scope="module")
def two_node():
    # Hand-checkable 2x2 case: one edge, killing only on the first node.
    return build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def preset_spaces():
    return [single_node_space(), path_space(2), path_space(16), complete_space(8)]


def random_space(rng, n=5):
    W = rng.uniform(0.0, 2.0, size=(n, n))
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    k = rng.uniform(0.1, 1.5, size=n)
    mu = rng.uniform(0.3, 2.0, size=n)
    return build_graph_space(W, k, mu)


# -- construction -----------------------------------------------------------


def test_single_node_generator(single):
    assert single.generator.shape == (1, 1)
    assert single.generator[0, 0] == pytest.approx(-1.0)
    assert single.eigenvalues[0] == pytest.approx(1.0)


def test_two_node_generator_and_spectrum(two_node):
    minus_l = -two_node.generator
    assert np.allclose(minus_l, [[2.0, -1.0], [-1.0, 1.0]])
    expected = np.array([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert np.allclose(np.sort(two_node.eigenvalues), expected, atol=1e-12)


def test_asymmetric_weights_rejected():
    with pytest.raises(SpaceError, match="asymmetric weights"):
        build_graph_space([[0.0, 1.0], [2.0, 0.0]], [1.0, 1.0], [1.0, 1.0])


def test_nonpositive_measure_rejected():
    with pytest.raises(SpaceError, match="measure"):
        build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 0.0])


def test_component_without_killing_rejected():
    # Two disconnected nodes, only the first is killed.
    with pytest.raises(SpaceError, match="not transient"):
        build_graph_space(np.zeros((2, 2)), [1.0, 0.0], [1.0, 1.0])


def test_empty_graph_rejected():
    with pytest.raises(SpaceError, match="nonempty square matrix"):
        build_graph_space(np.zeros((0, 0)), [], [])


def test_negative_weight_and_diagonal_rejected():
    with pytest.raises(SpaceError, match="nonnegative"):
        build_graph_space([[0.0, -1.0], [-1.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(SpaceError, match="diagonal"):
        build_graph_space([[1.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("argument", ["edge weights", "killing rates",
                                      "measure"])
def test_non_finite_graph_data_rejected(argument, value):
    # Refused before the eigensolver runs: NaN data made it fail to
    # converge, and an infinite killing rate read as a missing one.
    data = {"edge weights": np.array([[0.0, 1.0], [1.0, 0.0]]),
            "killing rates": np.ones(2), "measure": np.ones(2)}
    data[argument][-1] = value
    if argument == "edge weights":
        data[argument][0, 1] = value
    with pytest.raises(SpaceError, match=f"{argument} must be finite"):
        build_graph_space(*data.values())


def test_structural_invariants_on_random_spaces():
    for seed in range(6):
        space = random_space(np.random.default_rng(seed), n=4 + seed)
        sampled_space_invariants(space, rng=np.random.default_rng(seed + 1),
                                 n_witness=1000)
        mu, L = space.measure, space.generator
        sym = np.abs(mu[:, None] * L - (mu[:, None] * L).T).max()
        assert sym <= 1e-12 * max(np.abs(L).max(), 1.0)
        off = L - np.diag(np.diag(L))
        assert off.min() >= 0.0
        assert L.sum(axis=1).max() <= 1e-12 * max(np.abs(L).max(), 1.0)
        assert space.eigenvalues.min() > 0


def test_semigroup_sign_check_accepts_uneven_measure():
    # Draw 500 of a stream of random weighted path graphs: n = 35 nodes and
    # a measure ratio of 2387.  A path generator has nonnegative
    # off-diagonal entries, so its semigroup is entrywise nonnegative;
    # through the 1/sqrt(mu)-scaled basis its transition matrix picked up
    # entries below -1e-12, which an absolute sign test refused.
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(3, 40))
        weights = np.exp(rng.uniform(-3, 3, n - 1))
        killing = np.exp(rng.uniform(-3, 3))
        mu = np.exp(rng.uniform(-4, 4, n))
    assert n == 35 and 2387 < mu.max() / mu.min() < 2388
    W = np.diag(weights, 1) + np.diag(weights, -1)
    space = build_graph_space(W, np.append(killing, np.zeros(n - 1)), mu)
    sampled_space_invariants(space)


def test_semigroup_sign_check_refuses_negative_entries():
    # A Markov generator whose spectral data belong to [[2, 1], [1, 2]]:
    # the semigroup those data give has negative off-diagonal entries.  The
    # constructor refuses them as not the generator's own.
    basis = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    with pytest.raises(SpaceError, match="eigen-decomposition residual"):
        DirichletSpace(np.ones(2), np.array([[-2.0, 1.0], [1.0, -2.0]]),
                       np.array([1.0, 3.0]), basis)


@pytest.mark.parametrize("generator, match", [
    ([[-2.0, 1.0], [0.5, -2.0]], "mu-symmetry"),
    ([[-1.0, 1.5], [1.5, -4.0]], "positive generator row sum"),
    ([[-2.0, -0.5], [-0.5, -2.0]], "negative off-diagonal"),
], ids=["asymmetric", "positive_row_sum", "negative_off_diagonal"])
def test_constructor_refuses_a_generator_that_breaks_a_rule(generator,
                                                            match):
    # Each spectrum is positive and the spectral data are the generator's
    # own, so only the named rule fails.
    L = np.array(generator)
    lam, basis = np.linalg.eig(-L)
    with pytest.raises(SpaceError, match=match):
        DirichletSpace(np.ones(2), L, lam, basis)


@pytest.mark.parametrize("field", ["generator", "basis"])
def test_constructor_refuses_non_finite_spectral_data(field):
    # A NaN entry made every tolerance NaN, which no comparison refused.
    space = path_space(2)
    data = {name: getattr(space, name)
            for name in ("measure", "generator", "eigenvalues", "basis")}
    data[field] = np.where(np.eye(2, dtype=bool), np.nan, data[field])
    with pytest.raises(SpaceError, match="must be finite"):
        DirichletSpace(**data)


def test_constructor_refuses_empty_or_scalar_measure():
    # Refused as a SpaceError, not by numpy's empty reduction or indexing.
    with pytest.raises(SpaceError, match="nonempty"):
        DirichletSpace(np.ones(0), np.zeros((0, 0)), np.ones(0),
                       np.zeros((0, 0)))
    with pytest.raises(SpaceError, match="shapes must agree"):
        DirichletSpace(1.0, -np.ones((1, 1)), np.ones(1), np.ones((1, 1)))


ORACLE_SPACES = {
    "path_2": lambda: path_space(2),
    "path_16": lambda: path_space(16),
    "complete_3": lambda: complete_space(3),
    "complete_8": lambda: complete_space(8),
    "single": lambda: single_node_space(),
    "single_killing_4": lambda: single_node_space(4.0),
    **{f"path_16|{kind}({alpha})":
       lambda kind=kind, alpha=alpha: subordinate(
           path_space(16), BernsteinFunction(kind, alpha))
       for kind in ("power", "shifted_power") for alpha in (0.3, 0.5, 0.8)},
    **{f"random_{seed}":
       lambda seed=seed: random_space(np.random.default_rng(seed), n=4 + seed)
       for seed in range(6)},
}


@pytest.mark.parametrize("build", ORACLE_SPACES.values(), ids=ORACLE_SPACES)
def test_spaces_hold_to_sampled_oracles(build):
    # Construction checks only exact rules; the facts they imply are
    # sampled here, at the default draw and at 1000 functions.
    space = build()
    sampled_space_invariants(space)
    sampled_space_invariants(space, rng=np.random.default_rng(7),
                             n_witness=1000)
    # The witness constant is exact: u = K^-1 g attains dual_norm(g).
    g = space.witness
    u = space.solve_generator(g)
    attained = space.integrate(np.abs(u) * g) / space.energy_norm(u)
    assert abs(attained - space.dual_norm(g)) <= 1e-14
    assert abs(space.dual_norm(g) - 1.0) <= 1e-14


# -- energy -----------------------------------------------------------------


def test_energy_zero_function(two_node):
    assert two_node.energy(np.zeros(2)) == pytest.approx(0.0, abs=1e-15)


def test_energy_single_node(single):
    assert single.energy([1.0], [1.0]) == pytest.approx(1.0)


def test_energy_two_node_constant(two_node):
    # Only the killing term contributes on constants.
    assert two_node.energy([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_energy_symmetric_and_positive(preset_spaces):
    rng = np.random.default_rng(11)
    for space in preset_spaces:
        u = rng.standard_normal(space.node_count)
        v = rng.standard_normal(space.node_count)
        assert space.energy(u, v) == pytest.approx(space.energy(v, u), rel=1e-12)
        # definite: dominated below by the spectral gap times the L2 mass
        assert space.energy(u) >= space.eigenvalues[0] * space.lp_norm(u, 2) ** 2 \
            * (1 - 1e-12)
        # matches the matrix formula -sum(mu * Lu * v)
        direct = -np.sum(space.measure * (space.generator @ u) * v)
        assert space.energy(u, v) == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_energy_dimension_mismatch(two_node):
    with pytest.raises(ValueError, match="last axis"):
        two_node.energy(np.ones(3))


# -- semigroup ---------------------------------------------------------------


def test_semigroup_identity_at_zero(two_node):
    f = np.array([0.3, -1.2])
    assert np.allclose(two_node.semigroup(0.0, f), f)


def test_semigroup_single_node(single):
    assert single.semigroup(1.0, [1.0])[0] == pytest.approx(math.exp(-1.0))


def test_semigroup_eigenfunction_decay(preset_spaces):
    for space in preset_spaces:
        k = space.node_count // 2
        phi = space.basis[:, k]
        lam = space.eigenvalues[k]
        got = space.semigroup(0.7, phi)
        assert np.allclose(got, math.exp(-0.7 * lam) * phi, atol=1e-12)


def test_semigroup_law_and_contraction(preset_spaces):
    rng = np.random.default_rng(3)
    for space in preset_spaces:
        f = rng.standard_normal(space.node_count)
        lhs = space.semigroup(0.4, space.semigroup(0.9, f))
        rhs = space.semigroup(1.3, f)
        assert np.abs(lhs - rhs).max() <= 1e-10
        for t in (0.1, 0.5, 1.0, 2.0):
            g = space.semigroup(t, f)
            assert np.abs(g).max() <= np.abs(f).max() * (1 + 1e-12)
        # positivity preservation
        pos = np.abs(f)
        assert space.semigroup(0.8, pos).min() >= -1e-13


def test_semigroup_negative_time_rejected(single):
    with pytest.raises(ValueError, match="nonnegative"):
        single.semigroup(-0.1, [1.0])


# -- Gamma-transform ----------------------------------------------------------


def test_gamma_transform_single_node(single):
    assert single.gamma_transform(2.0, [1.0])[0] == pytest.approx(0.5)


def test_gamma_transform_eigenfunction(two_node):
    for k in range(2):
        phi = two_node.basis[:, k]
        lam = two_node.eigenvalues[k]
        got = two_node.gamma_transform(3.0, phi)
        assert np.allclose(got, (1 + lam) ** -1.5 * phi, atol=1e-12)


def test_gamma_transform_bessel_isometry(preset_spaces):
    # Order-one transform maps the weighted L2 norm onto the graph norm.
    rng = np.random.default_rng(5)
    for space in preset_spaces:
        w = rng.standard_normal(space.node_count)
        u = space.gamma_transform(1.0, w)
        assert space.bessel_norm(u) == pytest.approx(space.lp_norm(w, 2), rel=1e-12)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_gamma_transform_quadrature_oracle(preset_spaces, r):
    rng = np.random.default_rng(int(r))
    for space in preset_spaces:
        w = rng.standard_normal(space.node_count)
        spectral = space.gamma_transform(r, w)
        quad = gamma_transform_quadrature(space, r, w)
        denom = np.linalg.norm(spectral)
        assert np.linalg.norm(spectral - quad) <= 1e-6 * denom


def test_gamma_transform_invalid_order(single):
    with pytest.raises(ValueError, match="positive"):
        single.gamma_transform(0.0, [1.0])


# -- dual norms ----------------------------------------------------------------


def test_dual_norm_zero(two_node):
    assert two_node.dual_norm(np.zeros(2), shift=1.0) == pytest.approx(0.0)
    assert two_node.dual_norm(np.zeros(2)) == pytest.approx(0.0)


def test_dual_norm_single_node_values(single):
    assert single.dual_norm([1.0], shift=1.0) == pytest.approx(1 / math.sqrt(2))
    assert single.dual_norm([1.0]) == pytest.approx(1.0)


def test_dual_norm_matches_resolvent_quadratic(preset_spaces):
    rng = np.random.default_rng(13)
    for space in preset_spaces:
        v = rng.standard_normal(space.node_count)
        for shift in (1.0, 0.25):
            res = np.linalg.solve(shift * np.eye(space.node_count)
                                  - space.generator, v)
            direct = math.sqrt(np.sum(space.measure * v * res))
            assert space.dual_norm(v, shift) == pytest.approx(direct, rel=1e-10)


def test_dual_norm_is_supremum(preset_spaces):
    # sup over the shifted-norm unit ball; random candidates stay below and
    # the resolvent direction attains it.
    rng = np.random.default_rng(17)
    for space in preset_spaces:
        v = rng.standard_normal(space.node_count)
        shift = 0.5
        norm = space.dual_norm(v, shift)
        for _ in range(50):
            u = rng.standard_normal(space.node_count)
            u = u / space.bessel_norm_shifted(u, shift)
            assert space.pairing(v, u) <= norm * (1 + 1e-10)
        star = np.linalg.solve(shift * np.eye(space.node_count)
                               - space.generator, v)
        star = star / space.bessel_norm_shifted(star, shift)
        assert space.pairing(v, star) == pytest.approx(norm, rel=1e-10)


def test_dual_norm_monotone_in_shift_and_limit(preset_spaces):
    rng = np.random.default_rng(19)
    for space in preset_spaces:
        v = rng.standard_normal(space.node_count)
        shifts = [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6]
        vals = [space.dual_norm(v, s) for s in shifts]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        limit = space.dual_norm(v)
        assert max(vals) <= limit + 1e-12
        assert abs(vals[-1] - limit) <= 1e-6 * limit


def test_dual_norm_eigen_density(preset_spaces):
    for space in preset_spaces:
        k = space.node_count - 1
        phi = space.basis[:, k]
        lam = space.eigenvalues[k]
        # unit weighted-L2 density concentrated on one eigenfunction
        assert space.dual_norm(phi) == pytest.approx(lam ** -0.5, rel=1e-12)


def test_dual_norm_negative_shift_rejected(single):
    with pytest.raises(ValueError, match="nonnegative"):
        single.dual_norm([1.0], shift=-0.5)


# -- generator as a functional ---------------------------------------------


def test_generator_functional_zero(two_node):
    assert np.allclose(two_node.apply_generator(np.zeros(2)), 0.0)


def test_generator_functional_single_node(single):
    density = single.apply_generator([1.0])
    assert density[0] == pytest.approx(-1.0)
    assert single.dual_inner(density, [1.0]) == pytest.approx(-1.0)


def test_generator_pairing_identity(preset_spaces):
    rng = np.random.default_rng(23)
    for space in preset_spaces:
        u = rng.standard_normal((1000, space.node_count))
        v = rng.standard_normal((1000, space.node_count))
        lhs = space.dual_inner(space.apply_generator(u), v)
        rhs = -space.inner(u, v)
        scale = space.lp_norm(u, 2) * space.lp_norm(v, 2)
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.maximum(scale, 1e-30))


def test_solve_generator_roundtrip(two_node):
    v = np.array([0.7, -0.2])
    u = two_node.solve_generator(v)
    assert np.allclose(-(two_node.generator @ u), v, atol=1e-12)


# -- subordination ------------------------------------------------------------


def test_subordinate_power_fixed_point(single):
    out = subordinate(single, BernsteinFunction.power(0.37))
    assert out.eigenvalues[0] == pytest.approx(1.0)
    assert np.allclose(out.generator, single.generator, atol=1e-12)


def test_subordinate_power_half():
    space = single_node_space(killing=4.0)
    out = subordinate(space, BernsteinFunction.power(0.5))
    assert out.eigenvalues[0] == pytest.approx(2.0)


def test_subordinate_shifted_power():
    space = single_node_space(killing=3.0)
    out = subordinate(space, BernsteinFunction.shifted_power(0.5))
    assert out.eigenvalues[0] == pytest.approx(1.0)


def test_subordinate_keeps_basis_and_maps_spectrum_exactly():
    space = path_space(8)
    fn = BernsteinFunction.power(0.3)
    out = subordinate(space, fn)
    assert out.basis is not space.basis
    assert np.array_equal(out.basis, space.basis)
    assert np.array_equal(out.eigenvalues, fn(space.eigenvalues))


def test_subordinate_semigroup_law_and_positivity():
    space = path_space(8)
    for alpha in (0.3, 0.5, 0.8):
        out = subordinate(space, BernsteinFunction.power(alpha))
        f = RNG.standard_normal(8)
        lhs = out.semigroup(0.3, out.semigroup(0.5, f))
        rhs = out.semigroup(0.8, f)
        assert np.abs(lhs - rhs).max() <= 1e-10
        for t in (0.1, 1.0):
            assert out.transition_matrix(t).min() >= -1e-12


def test_subordinate_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        BernsteinFunction.power(1.2)
    with pytest.raises(ValueError, match="alpha"):
        BernsteinFunction.shifted_power(0.0)


def test_bernstein_kinds_are_the_papers_two():
    with pytest.raises(ValueError, match="unknown Bernstein kind"):
        BernsteinFunction("custom", 0.5)
    with pytest.raises(TypeError):
        BernsteinFunction("power")


@pytest.mark.parametrize("killing", [1e-17, 1e-10])
def test_shifted_power_small_eigenvalue_matches_binomial_series(killing):
    # (lam + 1)**alpha - 1 cancels at small lam: at 1e-17 it is 0 and the
    # space was refused, at 1e-10 it was off by 8e-8 relative.
    alpha = 0.5
    out = subordinate(single_node_space(killing),
                      BernsteinFunction.shifted_power(alpha))
    series = alpha * killing + alpha * (alpha - 1) * killing**2 / 2
    assert out.eigenvalues[0] == pytest.approx(series, rel=1e-15, abs=0.0)


def test_shifted_power_matches_direct_formula_on_preset_spectra():
    for space in (path_space(8), path_space(64), complete_space(8)):
        lam = space.eigenvalues
        for alpha in (0.3, 0.5, 0.8):
            direct = (lam + 1.0) ** alpha - 1.0
            fn = BernsteinFunction.shifted_power(alpha)
            assert np.allclose(fn(lam), direct, rtol=2e-15, atol=0.0)


# -- operator norms ------------------------------------------------------------


def test_opnorm_single_node(single):
    assert single.opnorm(1.0, 1, 2) == pytest.approx(math.exp(-1.0))


def test_opnorm_symmetry_identity(preset_spaces):
    spaces = list(preset_spaces)
    spaces += [subordinate(path_space(16), BernsteinFunction.power(a))
               for a in (0.3, 0.5, 0.8)]
    for space in spaces:
        for t in (0.1, 0.5, 1.0, 2.0):
            one_two = space.opnorm(t, 1, 2)
            two_inf = space.opnorm(t, 2, np.inf)
            one_inf_2t = space.opnorm(2 * t, 1, np.inf)
            assert one_two**2 == pytest.approx(one_inf_2t, rel=1e-8)
            assert two_inf**2 == pytest.approx(one_inf_2t, rel=1e-8)


def test_opnorm_decay(preset_spaces):
    for space in preset_spaces:
        ts = [0.2, 0.5, 1.0, 2.0, 4.0]
        vals = [space.opnorm(t, 1, np.inf) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_opnorm_invalid_arguments(single):
    with pytest.raises(ValueError, match="positive"):
        single.opnorm(0.0, 1, 2)
    with pytest.raises(ValueError, match="unsupported"):
        single.opnorm(1.0, 2, 2)
