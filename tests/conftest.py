import numpy as np
import pytest

from pdpfilter import Distribution, FilterModel, ObservationModel, validate_generator

CYCLIC4_GENERATOR = [
    [-1, 1, 0, 0],
    [0, -1, 1, 0],
    [0, 0, -1, 1],
    [1, 0, 0, -1],
]
CYCLIC4_LABELS = ("1", "0", "1", "0")

# perfbench/models/hexa6.json: labels a a a a b b
HEXA6_GENERATOR = [
    [-3, 1, 1, 0, 1, 0],
    [0, -2, 1, 1, 0, 0],
    [1, 0, -3, 1, 0, 1],
    [1, 1, 0, -3, 0, 1],
    [1, 0, 1, 0, -3, 1],
    [1, 1, 0, 1, 0, -3],
]


@pytest.fixture(scope="session")
def cyclic4():
    """4-state cyclic chain whose observation alternates between two labels."""
    rate = validate_generator(CYCLIC4_GENERATOR)
    obs = ObservationModel.from_assignment(CYCLIC4_LABELS)
    return FilterModel(rate, obs)


def three_state_model():
    """3-state model whose face {0, 1} has a non-diagonal sub-generator,
    so the filter flow is genuinely nonlinear."""
    rate = validate_generator([[-2, 1, 1], [1, -3, 2], [2, 1, -3]])
    return FilterModel(rate, ObservationModel.from_assignment(("a", "a", "b")))


def pdp5_model():
    """5-state, 3-label model (labels a a b c c) whose jump target law varies
    along the flow; criterion 5 checks its first-jump law."""
    rate = validate_generator([
        [-3, 1, 1, 1, 0],
        [1, -4, 1, 0, 2],
        [1, 1, -4, 1, 1],
        [0, 1, 1, -3, 1],
        [1, 1, 1, 1, -4],
    ])
    return FilterModel(rate, ObservationModel.from_assignment(("a", "a", "b", "c", "c")))


@pytest.fixture(scope="session")
def uniform4():
    return Distribution([0.25, 0.25, 0.25, 0.25])


def random_rate_matrix(gen, n, scale=2.0):
    m = gen.uniform(0.0, scale, (n, n))
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return validate_generator(m)


def random_observation(gen, n, n_labels):
    """Random surjective labeling of n states with n_labels labels."""
    while True:
        assignment = gen.integers(0, n_labels, n)
        if len(set(assignment.tolist())) == n_labels:
            return ObservationModel.from_assignment(tuple(str(a) for a in assignment))


def random_face_point(gen, model, label=None):
    labels = model.obs.labels
    if label is None:
        label = labels[gen.integers(0, len(labels))]
    face = model.faces[label]
    w = np.zeros(model.n)
    w[face] = gen.dirichlet(np.ones(len(face)))
    return model.face_point(label, w)
