"""Property-based checks (hypothesis): maps against the fixed-point solver."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltnet import equilibrium_map, solve_equilibrium_iterative


@st.composite
def contractive_networks(draw):
    """(W, m, D): rho(|W|) <= 0.9, n <= 4, mixed ceilings, a few inputs."""
    n = draw(st.integers(1, 4))
    W = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    rho = np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    if rho > 0.9:
        W *= 0.9 / rho
    ceiling = st.one_of(st.just(np.inf), st.floats(0.5, 3.0))
    m = np.array(draw(st.lists(ceiling, min_size=n, max_size=n)))
    D = draw(arrays(np.float64, (3, n), elements=st.floats(-5.0, 5.0)))
    return W, m, D


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(contractive_networks())
def test_map_eval_agrees_with_iterative_solver(case):
    W, m, D = case
    pa = equilibrium_map(W, m)
    for d in D:
        np.testing.assert_allclose(
            pa.eval(d), solve_equilibrium_iterative(W, m, d), rtol=0, atol=1e-8
        )
