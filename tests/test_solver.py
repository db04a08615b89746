"""Picard solver, residual and profile diagnostics, file outputs."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from compactfix import compactify, funcspace, greenop
from compactfix.casestudy import load_problem_file
from compactfix.compactify import IntervalIdentity, ProductCompactification
from compactfix.funcspace import WeightedGridFunction, load_grid_function
from compactfix.greenop import (GridHammersteinOperator, apply_T,
                                cumulative_weights)
from compactfix.solver import (MAX_NODES, IterationError, SolveConfig,
                               asymptotic_profile, pde_residual, picard_solve,
                               write_outputs)


def _zero_problem(tmp_path):
    doc = {"id": "null-forcing", "truncation": 4.0,
           "kernel": {"id": "gauss-shift"},
           "nonlinearity": {"id": "zero"}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return load_problem_file(path)


def test_solve_without_config_takes_the_problems_truncation(tmp_path):
    prob = _zero_problem(tmp_path)
    res = picard_solve(prob)
    assert res.config.truncation == prob.truncation == 4.0
    assert res.solution.axes[0][-1] == 4.0


def test_zero_forcing_fixes_zero(tmp_path):
    prob = _zero_problem(tmp_path)
    cfg = SolveConfig(h=0.25, truncation=4.0)
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


def test_iterates_from_zero_and_a_supersolution_meet(problem):
    # the equation is Volterra in y, so it has one bounded solution: Picard
    # from below (q = 0) and from the supersolution q = 0.4 reach the same q
    axes = SolveConfig(h=0.02, truncation=24.0).axes()
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    lower = np.zeros(tuple(len(a) for a in axes))
    upper = np.full_like(lower, 0.4)
    for _ in range(8):
        new = op.apply(upper)
        assert np.all(new <= upper)
        lower, upper = op.apply(lower), new
    assert np.all(lower <= upper)
    assert np.max(upper - lower) < 1e-11


def test_iteration_budget_exhaustion(problem):
    cfg = SolveConfig(h=0.25, truncation=4.0, tol=1e-30, max_iter=2)
    with pytest.raises(IterationError, match="no convergence") as err:
        picard_solve(problem, cfg)
    assert len(err.value.gap_history) == 2


def _residual(axes, q, problem):
    """pde_residual on the blocks of a grid operator built for axes, which
    it consumes."""
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    residual = pde_residual(axes, q, problem.kernel, problem.nl, op.blocks)
    assert op.blocks == []
    return residual


def test_non_finite_gap_carries_the_gap_history(tmp_path):
    # at amplitude 1e10 each gap squares the last until q^2 overflows:
    # the error carries the six finite gaps and the first NaN
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        {"kernel": {"id": "gauss-shift"},
         "nonlinearity": {"id": "gauss-plus-square",
                          "params": {"amplitude": 1e10}}}))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IterationError, match="at iteration 7 ") as err:
            picard_solve(load_problem_file(path))
    gaps = err.value.gap_history
    assert len(gaps) == 7 and np.isnan(gaps[-1])
    assert all(1e9 < g < b for g, b in zip(gaps, gaps[1:-1]))


def test_pde_residual_of_zero_is_the_forcing_peak(problem):
    # at q = 0 the convolution term int_0^x dqx(x, t) dt g vanishes (dqx is
    # odd about t = x/2), so the residual is qx(x, x) g near the origin
    axes = SolveConfig(h=0.02, truncation=2.0).axes()
    q = np.zeros((len(axes[0]), len(axes[1])))
    assert _residual(axes, q, problem) == pytest.approx(0.125, abs=1e-3)
    tiny = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="too coarse"):
        _residual(tiny, np.zeros((2, 2)), problem)


def test_pde_residual_matches_the_dense_weight_matrix(problem):
    # reference: the convolution term from the dense cumulative_weights
    # matrix times qx and then dlog_qx, the operator's row blocks over the
    # full causal columns.  On [0, 8] no column is trimmed; at truncation
    # 24 the solved q's blocks are probed and trimmed on both sides
    axes = (np.linspace(0.0, 8.0, 201), np.linspace(0.0, 1.0, 11))
    X, Y = np.meshgrid(*axes, indexing="ij")
    solved = picard_solve(problem, SolveConfig(h=0.05,
                                               truncation=24.0)).solution
    kernel = problem.kernel
    for (xs, ys), q in [(axes, 0.2 * Y * (1.0 + np.sin(3.0 * X))),
                        (solved.axes, solved.quotient())]:
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        mixed = (q[2:, 2:] - q[2:, :-2] - q[:-2, 2:] + q[:-2, :-2]) \
            / ((xs[2:] - xs[:-2])[:, None] * (ys[2:] - ys[:-2])[None, :])
        gvals = problem.nl.q_eval(X[:, 1:-1], Y[:, 1:-1], q[:, 1:-1])
        conv = np.empty_like(gvals)
        W = cumulative_weights(xs)
        for a in range(0, len(xs), 64):
            b = min(a + 64, len(xs))
            x, t = xs[a:b, None], xs[None, :b]
            block = W[a:b, :b] * kernel.qx(x, t) * kernel.dlog_qx(x, t)
            conv[a:b] = block @ gvals[:b]
        rhs = kernel.qx(xs[1:-1], xs[1:-1])[:, None] * gvals[1:-1] \
            + conv[1:-1]
        assert _residual((xs, ys), q, problem) \
            == np.max(np.abs(mixed - rhs)), len(xs)


def test_solve_holds_one_band_and_two_grids(problem):
    # the operator's blocks are the solve's only kernel band, and beside it
    # the solve holds the iterate and its image: an application works in
    # its output, the gap and beta go into the dead iterate's buffer, and
    # the residual consumes the blocks one at a time
    cfg = SolveConfig(h=0.02, truncation=24.0)
    axes = cfg.axes()
    grid = len(axes[0]) * len(axes[1]) * 8
    band = sum(block.nbytes for _, _, block in GridHammersteinOperator(
        problem.kernel, problem.nl, axes).blocks)
    tracemalloc.start()
    try:
        picard_solve(problem, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= band + 2.6 * grid, (peak - band) / grid


def test_solve_evaluates_its_kernel_band_once(problem, counting_kernel,
                                              monkeypatch):
    # one kernel_row_blocks pass builds the band; the residual evaluates
    # dlog_qx on that band only and qx on the diagonal only
    cfg = SolveConfig(h=0.02, truncation=24.0)
    axes = cfg.axes()
    kernel, points = counting_kernel, counting_kernel.points
    band = sum(block.size for _, _, block in GridHammersteinOperator(
        kernel, problem.nl, axes).blocks)
    build = points["qx"]
    points["qx"] = 0
    passes = []
    real = greenop.kernel_row_blocks

    def row_blocks(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(greenop, "kernel_row_blocks", row_blocks)
    res = picard_solve(dataclasses.replace(problem, kernel=kernel), cfg)
    assert len(passes) == 1
    assert points == {"qx": build + len(axes[0]) - 2, "dlog_qx": band}
    assert "dqx" not in {f.name for f in dataclasses.fields(greenop.Kernel)}
    assert res.residual_sup == picard_solve(problem, cfg).residual_sup


def test_pde_residual_of_a_nan_is_nan(problem):
    # one NaN node reaches the stencil of its neighbours and, through g,
    # the convolution of every later row; a blockwise sup that skipped it
    # (Python's max(0.0, nan) is 0.0) would report a finite residual
    axes = SolveConfig(h=0.02, truncation=24.0).axes()
    for row in (1, 600, len(axes[0]) - 2):
        q = np.zeros((len(axes[0]), len(axes[1])))
        q[row, 7] = np.nan
        assert np.isnan(_residual(axes, q, problem)), row


def test_asymptotic_profile_of_closed_form(problem):
    xs = np.arange(0.0, 16.0 + 1e-9, 0.25)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u = WeightedGridFunction((xs, ys), problem.closed_forms["Tu0"](X, Y),
                             problem.weight, cmap=problem.cmap)
    prof = asymptotic_profile(u)
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
        asymptotic_profile(wobble)
    boxed = WeightedGridFunction(
        (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)), np.zeros((5, 5)),
        cmap=ProductCompactification((IntervalIdentity(),
                                      IntervalIdentity())))
    with pytest.raises(ValueError, match="no infinity face"):
        asymptotic_profile(boxed)


def test_profile_error_falls_tenfold_per_longer_truncation(problem):
    # past x = 38.6 phi is 0 in float64, yet the q-solve needs no division
    # by it; the y = 1 profile approaches the Riccati face value
    # q_inf(1) = 0.12475395214745 as the truncation grows
    errors = []
    for truncation in (24.0, 40.0, 60.0):
        res = picard_solve(problem, SolveConfig(h=0.05,
                                                truncation=truncation))
        assert res.profile_converged == len(res.profile)
        errors.append(abs(res.profile[-1][1].value - 0.12475395214745))
    assert errors[0] < 2e-6
    assert all(8.0 * b < a for a, b in zip(errors, errors[1:]))


def test_picard_solve_coarse_run(problem):
    cfg = SolveConfig(h=0.1, truncation=16.0, tol=1e-8, rho_ball=0.5)
    res = picard_solve(problem, cfg)
    assert res.iterations <= 10
    gaps = res.gap_history
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-8
    assert res.ball_check["holds"]
    assert res.in_ball is True
    assert max(res.beta_history) <= 0.5
    # the returned iterate is a fixed point well beyond the stopping gap
    extra = apply_T(res.solution, problem.kernel, problem.nl, method="grid")
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
    res = picard_solve(problem, SolveConfig(h=0.1, truncation=16.0))
    assert len(calls) == res.iterations
    # the face data attached to the last iterate is its own window limit
    stored = res.solution.infinity["axis0:inf"][(0, 0)]
    assert np.array_equal(stored, [r.value for _, r in res.profile])


def test_picard_solve_runs_one_face_ladder_per_y_node(problem, monkeypatch):
    calls = []
    classify = compactify.classify_ladder

    def counted(evidence, tol):
        calls.append(1)
        return classify(evidence, tol)

    monkeypatch.setattr(compactify, "classify_ladder", counted)
    cfg = SolveConfig(h=0.1, truncation=16.0)
    res = picard_solve(problem, cfg)
    assert len(calls) == len(cfg.axes()[1]) == len(res.profile)
    assert "axis0:inf" in res.solution.infinity


def test_solve_config_rejects_bad_steps_and_tolerance():
    for field in ("h", "tol"):
        for value in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be positive"):
                SolveConfig(truncation=24.0, **{field: value})


def test_solve_config_bounds_the_node_count():
    # refused in the constructor, before a grid is allocated: 240,001 x
    # 10,001 and 50,000,001 x 51 nodes, and an x- or a y-axis of 2 nodes,
    # which pde_residual refused only after the whole Picard loop
    for kwargs, match in (
            (dict(truncation=24.0, h=1e-4),
             "240001 x 10001 = 2400250001 nodes, more than MAX_NODES = "
             "10000000"),
            (dict(truncation=1e6), "50000001 x 51 = 2550000051 nodes"),
            (dict(truncation=1.0, h=1.0),
             "2 x 2 nodes; every axis needs at least 3"),
            (dict(truncation=4.0, h=1.0), "5 x 2 nodes"),
            (dict(truncation=0.5, h=0.5), "2 x 3 nodes")):
        with pytest.raises(ValueError, match=re.escape(match)):
            SolveConfig(**kwargs)
    assert MAX_NODES == 10 ** 7
    for truncation, h, nodes in ((24.0, 0.005, 965001), (100.0, 0.01, 1010101),
                                 (1.0, 0.5, 9)):
        axes = SolveConfig(truncation=truncation, h=h).axes()
        assert len(axes[0]) * len(axes[1]) == nodes


def test_profile_stable_under_grid_refinement(problem):
    coarse = picard_solve(problem, SolveConfig(h=0.1,
                                               truncation=16.0,
                                               rho_ball=None))
    fine = picard_solve(problem, SolveConfig(h=0.05,
                                             truncation=16.0, rho_ball=None))
    p_coarse = np.array([r.value for _, r in coarse.profile])
    p_fine = np.array([r.value for _, r in fine.profile])[::2]
    assert np.abs(p_coarse - p_fine).max() < 1e-3


def test_long_truncation_solution_feeds_back_to_the_library(problem):
    # phi underflows to 0 beyond x = 38.6; the solution keeps q, so neither
    # the grid route of T nor the weighted norm divides by that phi
    cfg = SolveConfig(h=0.1, truncation=40.0)
    res = picard_solve(problem, cfg)
    q = res.solution.quotient()
    xs = res.solution.axes[0]
    assert np.all(res.solution.samples[xs > 38.6] == 0.0)
    assert np.all(q[xs > 38.6, 1:] > 0.0)  # q = 0 on y = 0
    assert res.solution.samples.tobytes() \
        == (problem.weight(xs)[:, None] * q).tobytes()
    image = apply_T(res.solution, problem.kernel, problem.nl, method="grid")
    norm = funcspace.weighted_norm(res.solution)
    assert np.all(np.isfinite(image.samples)) and np.isfinite(norm)
    assert np.all(np.isfinite(image.quotient()))
    assert np.max(np.abs(image.quotient() - q)) < cfg.tol
    assert norm == pytest.approx(0.1248, abs=1e-4)


def test_uncertified_ball_warns(problem):
    cfg = SolveConfig(h=0.25, truncation=4.0, rho_ball=5.0)
    with pytest.warns(UserWarning, match="not certified"):
        res = picard_solve(problem, cfg)
    assert not res.ball_check["holds"]
    assert res.in_ball is True  # the iterates stay far inside anyway


def test_write_outputs(problem, tmp_path):
    cfg = SolveConfig(h=0.25, truncation=4.0, rho_ball=0.5)
    res = picard_solve(problem, cfg)
    out = tmp_path / "run"
    paths = write_outputs(res, out, timestamp=False)
    assert sorted(paths) == ["convergence", "profile", "solution", "summary"]
    for name in ("solution.csv", "solution.csv.json", "convergence.csv",
                 "profile.csv", "summary.json"):
        assert (out / name).is_file(), name
    loaded = load_grid_function(paths["solution"])
    assert loaded.quotient().tobytes() == res.solution.quotient().tobytes()
    assert loaded.samples.tobytes() == res.solution.samples.tobytes()
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "u/phi" and len(lines) == 17 * 5 + 1

    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,gap,beta,residual"
    assert len(rows) == res.iterations + 1
    body = [r.split(",") for r in rows[1:]]
    assert all(r[3] == "" for r in body[:-1])
    assert float(body[-1][3]) == res.residual_sup

    prof_rows = (out / "profile.csv").read_text().strip().splitlines()
    assert prof_rows[0] == "y0,limit,status,oscillation"
    assert len(prof_rows) == len(res.profile) + 1
    converged = sum(r.split(",")[2] == "converged" for r in prof_rows[1:])

    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == res.iterations
    assert summary["in_ball"] is True
    assert summary["config"]["rho_ball"] == 0.5
    assert "written_at" not in summary
    assert summary["profile_at_1"] == res.profile[-1][1].value
    # ||u||_phi = sup |u/phi| over the grid and the face values
    assert summary["weighted_norm"] \
        == funcspace.weighted_norm(res.solution) \
        >= np.max(np.abs(res.solution.quotient())) > summary["beta_final"]
    assert summary["profile_converged"] == converged
    assert summary["problem"] == "hyperbolic-erf"
    assert summary["config"] == {"grid_step": 0.25,
                                 "truncation": 4.0, "tol": 1e-8,
                                 "max_iter": 50, "rho_ball": 0.5}

    again = tmp_path / "run2"
    write_outputs(res, again, timestamp=False)
    assert (again / "summary.json").read_bytes() \
        == (out / "summary.json").read_bytes()
    write_outputs(res, tmp_path / "run3", timestamp=True)
    stamped = json.loads((tmp_path / "run3" / "summary.json").read_text())
    assert "written_at" in stamped


def test_solve_config_validation():
    with pytest.raises(ValueError, match="tol"):
        SolveConfig(truncation=24.0, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolveConfig(truncation=24.0, max_iter=0)
    # h must divide both [0, truncation] and [0, 1]
    with pytest.raises(ValueError, match=re.escape(
            "h = 0.07 does not divide the interval [0, 4]")):
        SolveConfig(h=0.07, truncation=4.0)
    with pytest.raises(ValueError, match=re.escape(
            "h = 0.3 does not divide the interval [0, 1]")):
        SolveConfig(h=0.3, truncation=3.0)
    with pytest.raises(ValueError, match="truncation must be positive"):
        SolveConfig(truncation=float("nan"))
    axes = SolveConfig(h=0.25, truncation=4.0).axes()
    assert axes[0][0] == 0.0 and axes[0][-1] == 4.0 and len(axes[0]) == 17
    assert axes[1][-1] == 1.0 and len(axes[1]) == 5
