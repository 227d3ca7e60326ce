import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudoherm.catalog import (
    MODEL_NAMES,
    MODELS,
    get,
    morse_eigenfunction,
    periodic_eigenfunction,
    scarf_levels,
    scarf_parameters,
)
from pseudoherm.expressions import evaluate
from pseudoherm.generator import SpecError, derive, effective_potential


# ---------------------------------------------------------------------------
# lookup and levels


def test_model_names_all_resolve():
    env = {"A": 2.0, "xi": 1.0, "W0": 2.0, "C0": 0.0}
    for name in MODEL_NAMES:
        required, *_ = MODELS[name]
        assert get(name, {p: env[p] for p in required}).name == name


@pytest.mark.parametrize(
    "name,env",
    [
        ("constant_w", {"W0": 2.0, "C0": 0.0, "alpha": 1.0}),
        ("periodic", {"A": 4.0}),
        ("scarf2", {"A": 4.0, "xi": 1.0}),
    ],
)
def test_undeclared_parameter_rejected(name, env):
    extra = (set(env) - set(MODELS[name][0])).pop()
    with pytest.raises(SpecError, match="takes no parameter '%s'" % extra):
        get(name, env)


def test_scarf_levels_a4():
    assert get("scarf2", {"A": 4.0}).analytic_levels == (-2.25, -0.25)


def test_scarf_levels_a1_second_branch():
    assert get("scarf2", {"A": 1.0}).analytic_levels == (-0.25,)


def test_scarf_levels_boundary_a2():
    assert scarf_levels(2.0) == (-0.25,)


def test_scarf_levels_a3_lists_both_branches():
    assert scarf_levels(3.0) == (-1.0, -0.25)


def test_scarf_levels_below_a2_keep_the_ladder_state():
    assert scarf_levels(1.5) == (-0.25, -0.0625)


def test_scarf_levels_are_mirror_symmetric_in_a():
    for A in (1.5, 3.0, 4.0, 5.0):
        assert scarf_levels(-A) == scarf_levels(A)


def test_periodic_levels_skip_n2():
    levels = get("periodic").analytic_levels
    assert levels[:4] == (0.25, 2.25, 4.0, 6.25)
    assert 1.0 not in levels
    assert max(levels) == 16.0  # cutoff n <= 8


def test_morse_single_level():
    assert get("morse", {"xi": 1.0}).analytic_levels == (-0.25,)


def test_all_analytic_levels_are_real():
    for name, env in [("scarf2", {"A": 4.0}), ("periodic", {}), ("morse", {"xi": 1.0})]:
        for level in get(name, env).analytic_levels:
            assert isinstance(level, float)


def test_unknown_model_rejected():
    with pytest.raises(SpecError, match="unknown model"):
        get("coulomb")


def test_missing_parameter_rejected():
    with pytest.raises(SpecError, match="requires parameter 'A'"):
        get("scarf2")
    with pytest.raises(SpecError, match="requires parameter 'xi'"):
        get("morse")


def test_scarf_ladder_is_bounded_by_the_grid():
    # 2000 ladder levels, one per grid point, and -1/4
    assert len(get("scarf2", {"A": 4001.0}).analytic_levels) == 2000 + 1
    for A in (4001.5, -4002.0, 1e200):
        with pytest.raises(SpecError, match=r"requires \|A\| <= 4001"):
            get("scarf2", {"A": A})


def test_scarf_parameters():
    assert scarf_parameters(2.0) == (0.0, 2.0)
    assert scarf_parameters(4.0) == (1.0, 3.0)
    assert scarf_parameters(0.0) == (1.0, 1.0)
    assert get("scarf2", {"A": 4.0}).scarf_s_t == (1.0, 3.0)


VALID = [
    ("scarf2", {"A": 3.0}),
    ("periodic", {}),
    ("morse", {"xi": 1.0}),
    ("constant_w", {"W0": 2.0, "C0": 0.5}),
]


@pytest.mark.parametrize("name,env", VALID)
def test_spec_is_checked_on_the_grid_span(name, env):
    entry = get(name, env)
    assert entry.spec.check_interval == (entry.grid.a, entry.grid.b)


@pytest.mark.parametrize("name,env", VALID)
def test_entries_share_no_mutable_field(name, env):
    first, second = get(name, env), get(name, env)
    for entry_field in dataclasses.fields(first):
        a, b = getattr(first, entry_field.name), getattr(second, entry_field.name)
        if a is b:
            try:
                hash(a)
            except TypeError:
                pytest.fail("both entries hold one mutable %s" % entry_field.name)
    assert first.spec.env is not second.spec.env
    assert first.eigenfunctions is not second.eigenfunctions


# ---------------------------------------------------------------------------
# pipeline vs closed-form potential


@pytest.mark.parametrize(
    "name,env",
    [("scarf2", {"A": 2.0}), ("scarf2", {"A": 4.0}), ("periodic", {}), ("morse", {"xi": 1.0})],
)
def test_pipeline_matches_analytic_potential(name, env):
    entry = get(name, env)
    model = derive(entry.spec)
    grid = entry.grid
    xs = np.linspace(grid.a + grid.h, grid.b - grid.h, 200)
    reference = evaluate(entry.analytic_V, xs, entry.spec.env)
    error = np.abs(model.V(xs) - reference) / np.maximum(1.0, np.abs(reference))
    assert np.max(error) <= 1e-8


def test_scarf_pt_signature():
    entry = get("scarf2", {"A": 3.0})
    model = derive(entry.spec)
    xs = np.linspace(0.1, 8.0, 60)
    assert_allclose(model.W(-xs), -model.W(xs), rtol=0, atol=1e-12)
    assert_allclose(model.V(-xs), model.V(xs), rtol=0, atol=1e-12)


def test_morse_effective_potential_reconstruction():
    entry = get("morse", {"xi": 1.5})
    model = derive(entry.spec)
    xs = np.linspace(-2.0, 10.0, 80)
    u = np.exp(-xs)
    expected = -(0.25 * 1.5**2 * u**2 + 1j * 1.5 * u)
    actual = effective_potential(model, xs)
    assert np.max(np.abs(actual - expected) / np.abs(expected)) < 1e-10


def test_periodic_effective_potential_cross_check():
    entry = get("periodic")
    model = derive(entry.spec)
    xs = np.linspace(-3.0, 3.0, 80)
    closed = -6.0 / (np.cos(xs) + 2j * np.sin(xs)) ** 2
    assert np.max(np.abs(effective_potential(model, xs) - closed)) < 1e-10
    assert effective_potential(model, 0.0) == pytest.approx(-6.0 + 0j, abs=1e-14)


# ---------------------------------------------------------------------------
# eigenfunctions


def test_periodic_eigenfunction_boundary_values():
    for n in (1, 3, 4, 5):
        assert abs(periodic_eigenfunction(n, -np.pi)) < 1e-12
        assert abs(periodic_eigenfunction(n, np.pi)) < 1e-12


def test_periodic_missing_state_cancels_identically():
    xs = np.linspace(-np.pi, np.pi, 2002)
    assert np.max(np.abs(periodic_eigenfunction(2, xs))) < 1e-12


def test_periodic_eigenfunction_value_at_origin():
    assert periodic_eigenfunction(1, 0.0) == pytest.approx(15.0 + 0j, abs=1e-12)


def test_catalog_entry_carries_eigenfunctions():
    entry = get("periodic")
    assert set(entry.eigenfunctions) == {1, 2, 3, 4, 5, 6, 7, 8}
    value = entry.eigenfunctions[1](0.0)
    assert value == pytest.approx(15.0 + 0j, abs=1e-12)


def test_morse_eigenfunction_scale_variants():
    psi_derived = morse_eigenfunction(1.0)
    psi_printed = morse_eigenfunction(1.0, z_scale=2j)
    x = 0.7
    z = 1j * np.exp(-x)
    assert psi_derived(x) == pytest.approx(np.sqrt(z) * np.exp(-z / 2), abs=1e-14)
    assert psi_printed(x) == pytest.approx(
        np.sqrt(2 * z) * np.exp(-z), abs=1e-14
    )


# ---------------------------------------------------------------------------
# degenerate entry


def test_constant_w_entry_is_flagged():
    entry = get("constant_w", {"W0": 2.0, "C0": 0.0})
    assert not entry.solvable
    assert entry.analytic_levels == ()
    assert entry.spec.env["W0"] == 2.0


def test_constant_w_requires_both_parameters():
    with pytest.raises(SpecError, match="requires parameter"):
        get("constant_w", {"W0": 2.0})


def test_constant_w_requires_nonzero_w0():
    # so do scarf2 and morse: W = 0 makes I = 0, which every pipeline function divides by
    cases = [("constant_w", {"W0": 0.0, "C0": 1.0}, "W0 != 0"),
             ("scarf2", {"A": 0.0}, "A != 0"), ("morse", {"xi": 0.0}, "xi != 0")]
    for name, env, message in cases:
        with pytest.raises(SpecError, match=message):
            get(name, env)


def test_recommended_grids():
    assert get("scarf2", {"A": 2.0}).grid.n == 2000
    periodic = get("periodic").grid
    assert (periodic.a, periodic.b) == (-np.pi, np.pi)
    morse = get("morse", {"xi": 1.0}).grid
    assert (morse.a, morse.b) == (-2.0, 14.0)


@pytest.mark.parametrize(
    "name, env, window",
    [
        ("scarf2", {"A": 4.0}, 0.0),
        ("morse", {"xi": 1.0}, 0.0),
        # one above the top level 16, below the next Dirichlet level 20.25
        ("periodic", {}, 17.0),
        ("constant_w", {"W0": 2.0, "C0": 0.0}, None),
    ],
)
def test_spectrum_window(name, env, window):
    assert get(name, env).spectrum_window == window

