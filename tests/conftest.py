import hypothesis
import numpy as np
import pytest

from splpo import Instance, generate_instance
import splpo.solution as solution_module

hypothesis.settings.register_profile(
    "solver", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("solver")


@pytest.fixture
def count_sweeps(monkeypatch):
    """The greedy sweeps the package runs: by instance id, each sweep's early_stop."""
    sweeps, swept = {}, []  # swept keeps each instance alive, so no id is reused
    sweep = solution_module._greedy_sweep

    def counting(inst, early_stop):
        swept.append(inst)
        sweeps.setdefault(id(inst), []).append(early_stop)
        return sweep(inst, early_stop)

    monkeypatch.setattr(solution_module, "_greedy_sweep", counting)
    return sweeps


@pytest.fixture
def toy() -> Instance:
    """Two customers, two sites; optimum 8 at open={2} (1-based)."""
    return Instance(
        f=np.array([3.0, 1.0]),
        c=np.array([[2.0, 5.0], [4.0, 2.0]]),
        p=np.array([[1, 2], [2, 1]]),
        name="toy",
    )


def cost_ceiling(inst: Instance) -> np.ndarray:
    """cp[i] = max_j (c[i, j] + f[j]): no multiplier of customer i need exceed it."""
    return (inst.c + inst.f).max(axis=1)


def random_instance(seed: int, m_max: int = 10, n_max: int = 10) -> Instance:
    """Seeded small instance with dimensions derived from the seed."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(2, n_max + 1))
    return generate_instance(m, n, seed, name=f"rand{seed}")


def cheap_open_instance(seed: int, integer=False, m_range=(2, 10), n_range=(2, 10)) -> Instance:
    """Seeded instance with opening costs cut to about a tenth, so that optima
    open several facilities; integer data, or costs with fractional parts."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(*m_range, endpoint=True)), int(rng.integers(*n_range, endpoint=True))
    base = generate_instance(m, n, seed)
    f = base.f * rng.uniform(0.05, 0.15, n)
    if integer:
        return Instance(f=np.floor(f), c=base.c, p=base.p)
    return Instance(f=f + rng.random(n), c=base.c + rng.random((m, n)), p=base.p)
