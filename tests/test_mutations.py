"""Mutation suite: the certificates against solvers that run another scheme.

Each case patches one solver function (or the negative control's shift),
runs ``certify`` at n=20, seed 0, and asserts exactly which checks fail. A
near miss that no check catches today is an ``xfail(strict=True)`` whose
reason states the gap, so a check that learns to catch it turns the case
into an unexpected pass.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from lgadmm import (
    PrimalDualPoint,
    SolverConfig,
    build_problem,
    cli,
    default_metrics,
    generate_instance,
    pack_point,
    solver,
    zeros_point,
)

first_phase_update = solver.first_phase_update
last_block_update = solver.last_block_update
multiplier_update = solver.multiplier_update
corrupt_trajectory = cli._corrupt_trajectory

ALL_CHECKS = {"update_recurrence", "fejer_contraction", "step_monotonicity",
              "nonergodic_rate", "cross_term", "ergodic_gap", "step_inequality"}


def gauss_seidel_first_phase(problem, config, state):
    # block j sees the fresh values of the blocks before it
    fresh = list(first_phase_update(problem, config, state))
    for j in range(1, len(fresh)):
        seen = PrimalDualPoint((*fresh[:j], *state.current.primal[j:]), state.current.dual)
        fresh[j] = first_phase_update(problem, config, replace(state, current=seen))[j]
    return tuple(fresh)


def last_block_target_at(gamma):
    def mutant(problem, config, state, first_phase):
        return last_block_update(problem, replace(config, gamma=gamma), state, first_phase)
    return mutant


def first_phase_with_shrunk_multiplier(problem, config, state):
    current = state.current
    shrunk = PrimalDualPoint(current.primal, current.dual * (1.0 - 1e-3))
    return first_phase_update(problem, config, replace(state, current=shrunk))


def multiplier_with_gamma_times(factor):
    def mutant(problem, config, state, fresh_primal):
        return multiplier_update(problem, replace(config, gamma=config.gamma * factor),
                                 state, fresh_primal)
    return mutant


def near_miss(why):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"passes all seven checks: {why}")


PRIMAL_GAP = ("M is the identity on the primal rows and the auxiliary point shares "
              "the fresh primal blocks, so no check ties a fresh block to the "
              "scheme's target")


@pytest.mark.parametrize("patch, magnitude, failed", [
    pytest.param({}, None, set(), id="unpatched"),
    pytest.param({"first_phase_update": gauss_seidel_first_phase}, None, None,
                 marks=near_miss(PRIMAL_GAP), id="gauss-seidel-first-phase"),
    # caught by the cross term alone, by margins of a few 1e-6
    pytest.param({"last_block_update": last_block_target_at(1.0)}, None,
                 {"cross_term"}, id="last-block-target-gamma-1.0"),
    pytest.param({"last_block_update": last_block_target_at(1.4)}, None, None,
                 marks=near_miss(PRIMAL_GAP), id="last-block-target-gamma-1.4"),
    pytest.param({"first_phase_update": first_phase_with_shrunk_multiplier}, None, None,
                 marks=near_miss(PRIMAL_GAP + ", and no check asks whether the "
                                 "reference solves the problem"),
                 id="first-phase-multiplier-1e-3-short"),
    pytest.param({"multiplier_update": multiplier_with_gamma_times(1.0 + 1e-4)}, None,
                 {"update_recurrence"}, id="multiplier-gamma-1e-4-long"),
    pytest.param({}, 1e3, ALL_CHECKS, id="negative-control-1e3"),
    pytest.param({}, 1e-6, {"update_recurrence"}, id="negative-control-1e-6"),
])
def test_certify_against_a_mutant(tmp_path, monkeypatch, patch, magnitude, failed):
    """``failed`` is the exact set of failed checks; ``None`` asks only that
    some check fail, which the near misses do not yet."""
    for name, mutant in patch.items():
        monkeypatch.setattr(solver, name, mutant)
    if magnitude is not None:
        monkeypatch.setattr(cli, "_corrupt_trajectory",
                            lambda trajectory: corrupt_trajectory(trajectory, magnitude))
    settings = dict(cli._DEFAULTS["certify"], command="certify", n=20, seed=0,
                    negative_control=magnitude is not None, out=str(tmp_path))
    code = cli.run_certify(settings)
    reported = set(json.loads((tmp_path / "summary.json").read_text())["failed_checks"])
    assert code == (4 if reported else 0)
    if failed is None:
        assert reported, "the mutant passes every check"
    else:
        assert reported == failed


@pytest.mark.parametrize("name, mutant", [
    ("first_phase_update", gauss_seidel_first_phase),
    ("last_block_update", last_block_target_at(1.0)),
    ("last_block_update", last_block_target_at(1.4)),
    ("first_phase_update", first_phase_with_shrunk_multiplier),
    ("multiplier_update", multiplier_with_gamma_times(1.0 + 1e-4)),
], ids=["gauss-seidel", "gamma-1.0", "gamma-1.4", "multiplier-1e-3-short", "gamma-1e-4-long"])
def test_each_mutant_runs_another_scheme(monkeypatch, name, mutant):
    # a mutant equal to the scheme would make its near miss vacuous
    instance = generate_instance(6, seed=0)
    problem = build_problem(instance)
    config = SolverConfig(rho=1.0, gamma=1.5, max_iterations=5, tolerance=1e-300,
                          proximal_metrics=default_metrics(instance, scale=4.0))
    clean = pack_point(problem, solver.solve(problem, config, zeros_point(problem)).final)
    monkeypatch.setattr(solver, name, mutant)
    mutated = pack_point(problem, solver.solve(problem, config, zeros_point(problem)).final)
    assert not np.array_equal(clean, mutated)
