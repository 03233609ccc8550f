"""Optimal stopping under partial observation, solved on the belief simplex.

Pay a running cost l(X_s) discounted at rate alpha until you stop, then pay
g(X_tau); never stopping drops the terminal cost.  The value function on the
effective simplex is computed by single-jump value iteration on a barycentric
grid; the optimal rule stops when the belief enters the contact set where the
obstacle nu g touches the value.  A Monte Carlo run of the computed rule is
compared against the computed value, and against a family of naive threshold
rules.
"""

import math

import numpy as np

from pdpfilter import (
    Distribution,
    FaceGrid,
    FilterModel,
    ObservationModel,
    RandomSource,
    StoppingProblem,
    evaluate_policy_mc,
    solve_value,
    stopping_rule,
    validate_generator,
    value_general,
    verify_variational,
)

rate = validate_generator([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]])
obs = ObservationModel.from_assignment(("1", "0", "1", "0"))
model = FilterModel(rate, obs)
prob = StoppingProblem(g=[0.0, 2.0, 5.0, 3.0], l=[1.0, 0.5, 2.0, 0.2], alpha=0.5)
mu = Distribution([0.5, 0.1, 0.2, 0.2])

vf = solve_value(model, prob, FaceGrid(model, 64), tol=1e-6)
print(f"value iteration: {vf.info['iterations']} Gauss-Seidel passes, residual {vf.info['residual']:.2e}")

policy = stopping_rule(vf)
for a in model.obs.labels:
    pts = vf.grid.points[a]
    psi = pts @ prob.g[model.faces[a]]
    contact = psi <= vf.values[a] + policy.eps
    print(f"face '{a}': contact set covers {contact.mean():.0%} of the grid")

report = verify_variational(vf, prob)
print(f"variational inequalities: pass={report['pass']} "
      f"(obstacle {report['obstacle_violation']:.1e}, "
      f"continuation {report['continuation_violation']:.1e})")

V = value_general(mu, vf)
mean, se = evaluate_policy_mc(mu, policy, prob, 2000, 40.0, RandomSource(17))
print(f"V(mu) = {V:.5f}; Monte Carlo of the computed rule = {mean:.5f} +- {se:.5f}")


class ThresholdPolicy:
    """Stop as soon as the immediate stopping cost drops below theta."""

    def __init__(self, theta):
        self.theta = theta

    def first_entry(self, traj):
        for t0, fp in traj.segments:
            if float(fp.weights @ prob.g) <= self.theta:
                return t0
        return math.inf

    def first_entries(self, trajs):
        return [self.first_entry(traj) for traj in trajs]


print("\nnaive threshold rules for comparison:")
for theta in (0.5, 1.5, 2.5, 4.0):
    t_mean, t_se = evaluate_policy_mc(mu, ThresholdPolicy(theta), prob, 2000, 40.0,
                                      RandomSource(18), model=model)
    print(f"  theta={theta:3.1f}: cost {t_mean:.5f} +- {t_se:.5f}")
