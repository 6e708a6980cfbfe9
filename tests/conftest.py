import numpy as np
import pytest
from hypothesis import strategies as st

from swarmctrl.ctmc import TransitionGraph
from swarmctrl.grid import ScalarField, build_grid
from swarmctrl.pde import StepperConfig, assemble_advection_diffusion, march


@pytest.fixture
def unit_grid_64():
    return build_grid(1, [1.0], [64])


@pytest.fixture
def unit_grid_128():
    return build_grid(1, [1.0], [128])


def random_density(domain, rng, floor=0.1):
    """Strictly positive unit-mass field."""
    values = floor + rng.random(domain.shape)
    return ScalarField(domain, values).normalized()


def cosine_target(domain, amplitude=0.3, mode=1):
    x = domain.axis_centers(0)
    return ScalarField(domain, 1.0 + amplitude * np.cos(mode * np.pi * x)).normalized()


def march_to_end(matrix, y, duration, cfg):
    """The field on ``y``'s grid after ``march`` of y' = matrix @ y over ``duration``."""
    for block in march(matrix, y.flat, duration, cfg):
        pass
    return ScalarField(y.domain, block[-1])


def implicit_step(y, velocity, diffusion, dt):
    """One implicit Euler step of y_t = D lap(y) - div(v y) with the
    exponential-fitted flux and zero-flux boundary."""
    matrix = assemble_advection_diffusion(y.domain, velocity, diffusion)
    return march_to_end(matrix, y, dt, StepperConfig(dt=dt))


@st.composite
def random_grids(draw):
    dim = draw(st.integers(1, 2))
    cells = draw(st.lists(st.integers(2, 9), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim))
    return build_grid(dim, lengths, cells)


@st.composite
def gap_grids(draw):
    """Grids on both sides of the dense spectral-gap cutoff
    (``grid.DENSE_GAP_CELLS``): 1D up to 600 cells, 2D up to 30x30."""
    dim = draw(st.integers(1, 2))
    low, high = (3, 600) if dim == 1 else (2, 30)
    cells = draw(st.lists(st.integers(low, high), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.2, 5.0), min_size=dim, max_size=dim))
    return build_grid(dim, lengths, cells)


@st.composite
def strongly_connected_graphs(draw, max_states=4):
    """A directed cycle through 2..max_states states in random order, plus
    random extra edges."""
    n = draw(st.integers(2, max_states))
    order = draw(st.permutations(range(1, n + 1)))
    cycle = {(order[k], order[(k + 1) % n]) for k in range(n)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    extra = draw(st.sets(st.sampled_from(pairs)))
    return TransitionGraph(n, tuple(sorted(cycle | extra)))
