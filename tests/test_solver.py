"""Picard solver, residual and profile diagnostics, file outputs."""

import dataclasses
import json

import numpy as np
import pytest

from compactfix import funcspace
from compactfix.casestudy import load_problem_file
from compactfix.compactify import IntervalIdentity, ProductCompactification
from compactfix.funcspace import WeightedGridFunction, load_grid_function
from compactfix.greenop import (GridHammersteinOperator, apply_T,
                                cumulative_weights)
from compactfix.solver import (IterationError, SolveConfig, asymptotic_profile,
                               pde_residual, picard_solve, write_outputs)


def _zero_problem(tmp_path):
    doc = {"id": "null-forcing", "truncation": 4.0,
           "kernel": {"id": "gauss-shift"},
           "nonlinearity": {"id": "zero"}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return load_problem_file(path)


def test_zero_forcing_fixes_zero(tmp_path):
    prob = _zero_problem(tmp_path)
    cfg = SolveConfig(hx=0.25, hy=0.25, truncation=4.0)
    res = picard_solve(prob, cfg)
    assert res.iterations == 1
    assert res.gap_history == (0.0,)
    assert res.beta_history == (0.0,)
    assert np.all(res.solution.samples == 0.0)
    assert res.residual_sup == 0.0
    assert all(r.status == "converged" and r.value == 0.0
               for _, r in res.profile)
    assert res.in_ball is None and res.ball_check is None


def test_iterates_increase_monotonically(problem, coarse_axes):
    # the Picard iterates in the operator's coordinate q = u/phi
    op = GridHammersteinOperator(problem.kernel, problem.nl, coarse_axes)
    u = np.zeros(tuple(len(a) for a in coarse_axes))
    for _ in range(4):
        new = op.apply(u)
        assert np.all(new >= u - 1e-15)
        u = new
    assert u.max() > 0.0


def test_iteration_budget_exhaustion(problem):
    cfg = SolveConfig(hx=0.5, hy=0.25, truncation=4.0, tol=1e-30, max_iter=2)
    with pytest.raises(IterationError, match="no convergence") as err:
        picard_solve(problem, cfg)
    assert len(err.value.gap_history) == 2


def test_pde_residual_of_zero_is_the_forcing_peak(problem):
    axes = SolveConfig(hx=0.02, hy=0.02, truncation=2.0).axes()
    u = WeightedGridFunction(axes, np.zeros((len(axes[0]), len(axes[1]))))
    res = pde_residual(u, problem.nl)
    assert res == pytest.approx(0.125, abs=1e-3)
    tiny = WeightedGridFunction((np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                                np.zeros((2, 2)))
    with pytest.raises(ValueError, match="too coarse"):
        pde_residual(tiny, problem.nl)


def test_pde_residual_of_integral_solution_is_structural(problem):
    """The integral fixed point does not satisfy the mixed-derivative form.

    The residual of the closed-form image of zero sits near 7.07e-2 and does
    not shrink under grid refinement, so it measures a model gap rather than
    discretization error.
    """
    values = {}
    for h in (0.02, 0.01):
        xs = np.arange(0.0, 8.0 + 1e-9, h)
        ys = np.arange(0.0, 1.0 + 1e-9, h)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        u = WeightedGridFunction((xs, ys), problem.closed_forms["Tu0"](X, Y),
                                 problem.weight, cmap=problem.cmap)
        values[h] = pde_residual(u, problem.nl)
    assert values[0.02] == pytest.approx(0.0707, abs=5e-3)
    assert values[0.01] / values[0.02] > 0.8


def test_pde_residual_matches_the_dense_weight_matrix(problem):
    # reference: the convolution term from the dense cumulative_weights
    # matrix, cut into the same row blocks and causal columns
    xs = np.linspace(0.0, 8.0, 201)
    ys = np.linspace(0.0, 1.0, 11)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u = WeightedGridFunction((xs, ys), 0.2 * Y * np.exp(-X ** 2 / 2.0)
                             * (1.0 + np.sin(3.0 * X)), problem.weight)
    v, kernel = u.samples, problem.kernel
    mixed = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) \
        / ((xs[2:] - xs[:-2])[:, None] * (ys[2:] - ys[:-2])[None, :])
    fvals = problem.nl.eval(X[:, 1:-1], Y[:, 1:-1], v[:, 1:-1])
    rhs = kernel.kx(xs[1:-1], xs[1:-1])[:, None] * fvals[1:-1]
    W = cumulative_weights(xs)
    for a in range(1, len(xs) - 1, 64):
        b = min(a + 64, len(xs) - 1)
        block = W[a:b, :b] * kernel.dkx(xs[a:b, None], xs[None, :b])
        rhs[a - 1:b - 1] += block @ fvals[:b]
    assert pde_residual(u, problem.nl, kernel) == np.max(np.abs(mixed - rhs))


def test_pde_residual_refuses_kernels_it_cannot_differentiate(problem):
    axes = SolveConfig(hx=0.25, hy=0.25, truncation=2.0).axes()
    u = WeightedGridFunction(axes, np.zeros((len(axes[0]), len(axes[1]))))
    with_ky = dataclasses.replace(problem.kernel,
                                  ky=lambda y, s: np.ones_like(s))
    with pytest.raises(ValueError, match="ky"):
        pde_residual(u, problem.nl, with_ky)
    no_dkx = dataclasses.replace(problem.kernel, dkx=None)
    with pytest.raises(ValueError, match="dkx"):
        pde_residual(u, problem.nl, no_dkx)


def test_asymptotic_profile_of_closed_form(problem):
    xs = np.arange(0.0, 16.0 + 1e-9, 0.25)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u = WeightedGridFunction((xs, ys), problem.closed_forms["Tu0"](X, Y),
                             problem.weight, cmap=problem.cmap)
    prof = asymptotic_profile(u, tol=1e-6)
    face = problem.closed_forms["Tu0_face"]
    for y0, res in prof:
        assert res.status == "converged"
        assert abs(res.value - face(y0)) < 1e-9
    assert prof[0][1].value == 0.0


def test_asymptotic_profile_error_paths(problem):
    xs = np.arange(0.0, 24.0 + 1e-9, 0.5)
    ys = np.linspace(0.0, 1.0, 5)
    X, _ = np.meshgrid(xs, ys, indexing="ij")
    wobble = WeightedGridFunction((xs, ys), np.sin(X), cmap=problem.cmap)
    with pytest.raises(ValueError, match="no limit of u/phi"):
        asymptotic_profile(wobble, tol=1e-3)
    boxed = WeightedGridFunction(
        (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)), np.zeros((5, 5)),
        cmap=ProductCompactification((IntervalIdentity(0.0, 1.0),
                                      IntervalIdentity(0.0, 1.0))))
    with pytest.raises(ValueError, match="no infinity face"):
        asymptotic_profile(boxed)


def test_picard_solve_coarse_run(problem):
    cfg = SolveConfig(hx=0.1, hy=0.1, truncation=16.0, tol=1e-8, rho_ball=0.5)
    res = picard_solve(problem, cfg)
    assert res.iterations <= 10
    gaps = res.gap_history
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-8
    assert res.ball_check.holds
    assert res.in_ball is True
    assert max(res.beta_history) <= 0.5
    # the returned iterate is a fixed point well beyond the stopping gap
    extra = apply_T(res.solution, problem.kernel, problem.nl, method="grid",
                    faces=False)
    gap = np.max(np.abs(extra.samples - res.solution.samples)
                 / res.solution.weight_values())
    assert gap < 2e-8
    face = problem.closed_forms["Tu0_face"]
    for y0, r in res.profile:
        assert r.status == "converged"
        # monotone iteration from zero puts the limit above the zero-image,
        # up to the h^4 quadrature error of this coarse grid
        assert r.value >= face(y0) - 1e-4
        assert r.value <= face(y0) + 1e-2
    assert res.profile[-1][1].value == pytest.approx(0.124749, abs=1e-3)


def test_picard_solve_applies_the_operator_once_per_iteration(problem,
                                                              monkeypatch):
    calls = []
    apply = GridHammersteinOperator.apply

    def counted(self, samples):
        calls.append(1)
        return apply(self, samples)

    monkeypatch.setattr(GridHammersteinOperator, "apply", counted)
    res = picard_solve(problem, SolveConfig(hx=0.1, hy=0.1, truncation=16.0))
    assert len(calls) == res.iterations
    # the face data attached to the last iterate is its own window limit
    stored = res.solution.infinity["axis0:inf"][(0, 0)]
    assert np.array_equal(stored, [r.value for _, r in res.profile])


def test_picard_solve_runs_one_face_ladder_per_y_node(problem, monkeypatch):
    calls = []
    classify = funcspace.classify_ladder

    def counted(evidence, tol):
        calls.append(1)
        return classify(evidence, tol)

    monkeypatch.setattr(funcspace, "classify_ladder", counted)
    cfg = SolveConfig(hx=0.1, hy=0.1, truncation=16.0)
    res = picard_solve(problem, cfg)
    assert len(calls) == len(cfg.axes()[1]) == len(res.profile)
    assert "axis0:inf" in res.solution.infinity


def test_solve_config_rejects_bad_steps_and_tolerance():
    for field in ("hx", "hy", "tol"):
        for value in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be positive"):
                SolveConfig(**{field: value})


def test_profile_stable_under_grid_refinement(problem):
    coarse = picard_solve(problem, SolveConfig(hx=0.1, hy=0.1,
                                               truncation=16.0,
                                               rho_ball=None))
    fine = picard_solve(problem, SolveConfig(hx=0.05, hy=0.05,
                                             truncation=16.0, rho_ball=None))
    p_coarse = np.array([r.value for _, r in coarse.profile])
    p_fine = np.array([r.value for _, r in fine.profile])[::2]
    assert np.abs(p_coarse - p_fine).max() < 1e-3


def test_uncertified_ball_warns(problem):
    cfg = SolveConfig(hx=0.5, hy=0.25, truncation=4.0, rho_ball=5.0)
    with pytest.warns(UserWarning, match="not certified"):
        res = picard_solve(problem, cfg)
    assert not res.ball_check.holds
    assert res.in_ball is True  # the iterates stay far inside anyway


def test_write_outputs(problem, tmp_path):
    cfg = SolveConfig(hx=0.25, hy=0.25, truncation=4.0, rho_ball=0.5)
    res = picard_solve(problem, cfg)
    out = tmp_path / "run"
    paths = write_outputs(res, out, timestamp=False)
    for key in ("solution", "convergence", "profile", "summary"):
        assert (out / f"{key if key != 'solution' else 'solution'}").exists \
            is not None
    loaded = load_grid_function(paths["solution"])
    assert np.array_equal(loaded.samples, res.solution.samples)

    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,gap,beta,residual"
    assert len(rows) == res.iterations + 1
    body = [r.split(",") for r in rows[1:]]
    assert all(r[3] == "" for r in body[:-1])
    assert float(body[-1][3]) == res.residual_sup

    prof_rows = (out / "profile.csv").read_text().strip().splitlines()
    assert prof_rows[0] == "y0,limit,status,oscillation"
    assert len(prof_rows) == len(res.profile) + 1

    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == res.iterations
    assert summary["in_ball"] is True
    assert summary["rho_ball"] == 0.5
    assert "written_at" not in summary
    assert summary["profile_at_1"] == res.profile[-1][1].value

    again = tmp_path / "run2"
    write_outputs(res, again, timestamp=False)
    assert (again / "summary.json").read_bytes() \
        == (out / "summary.json").read_bytes()
    write_outputs(res, tmp_path / "run3", timestamp=True)
    stamped = json.loads((tmp_path / "run3" / "summary.json").read_text())
    assert "written_at" in stamped


def test_solve_config_validation():
    with pytest.raises(ValueError, match="tol"):
        SolveConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolveConfig(max_iter=0)
    with pytest.raises(ValueError, match="hx = 0.07 does not divide"):
        SolveConfig(hx=0.07, hy=0.05, truncation=4.0)
    with pytest.raises(ValueError, match="hy = 0.3 does not divide"):
        SolveConfig(hx=0.25, hy=0.3, truncation=4.0)
    with pytest.raises(ValueError, match="truncation must be positive"):
        SolveConfig(truncation=float("nan"))
    axes = SolveConfig(hx=0.25, hy=0.25, truncation=4.0).axes()
    assert axes[0][0] == 0.0 and axes[0][-1] == 4.0 and len(axes[0]) == 17
    assert axes[1][-1] == 1.0 and len(axes[1]) == 5
