import tracemalloc

import pytest

import fracspec as fs


@pytest.fixture(scope="session")
def order075():
    return fs.FractionalOrder(0.75)


@pytest.fixture(scope="session")
def table075(order075):
    return fs.PhaseTable(order075)


@pytest.fixture(scope="session")
def bridge2000(order075):
    # shared by the eigenvalue, eigenfunction and acceptance tests; one
    # m=2000 solve is the most expensive object in the suite. Its users
    # read eigenvalues up to n = 30 and no eigenfunction above n = 10.
    spec = fs.KernelSpec(order075, fs.KernelKind.BRIDGE)
    return fs.discretize_and_solve(spec, fs.build_grid(2000), n_modes=30)


@pytest.fixture(scope="session")
def roots075(table075):
    # refined secular roots for n = 5..20 (acceptance criterion range)
    return {n: fs.refine_rho(n, table075) for n in range(5, 21)}


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn, *args): fn(*args) and the peak of its allocations
    above those before the call."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak
