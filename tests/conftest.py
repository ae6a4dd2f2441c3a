import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from chainconc import ChainSpec, Distribution, Kernel, validate_chain

# keep the whole suite deterministic run to run
settings.register_profile(
    "det", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


def random_distribution(rng, size, floor=0.05):
    """Strictly positive random probability vector."""
    v = rng.random(size) + floor
    return v / v.sum()


def random_chain(rng, n=None, max_size=3, floor=0.05) -> ChainSpec:
    """Random strictly positive chain, avoiding null-prefix edge cases."""
    if n is None:
        n = int(rng.integers(2, 6))
    sizes = tuple(int(rng.integers(2, max_size + 1)) for _ in range(n))
    initial = Distribution(random_distribution(rng, sizes[0], floor))
    kernels = tuple(
        Kernel(np.stack([random_distribution(rng, sizes[i + 1], floor) for _ in range(sizes[i])]))
        for i in range(n - 1)
    )
    return validate_chain(ChainSpec(sizes, initial, kernels))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def float_text_sizes(monkeypatch):
    """The sizes of the arrays that float_text formats during the test, in call order."""
    from chainconc import floattext
    sizes = []
    format_floats = floattext.float_text

    def counted(values, tables):
        sizes.append(len(values))
        return format_floats(values, tables)

    monkeypatch.setattr(floattext, "float_text", counted)
    return sizes
