import numpy as np
import pytest

from dualchain.chains import bd_kernel, make_bd
from dualchain.duals import siegmund_dual, siegmund_function
from dualchain.intertwining import build_intertwining
from dualchain.kernels import sup_norm


@pytest.fixture
def chain_a():
    # two states, births 0.3, deaths 0.2; pi = (0.4, 0.6)
    return make_bd(p=[0.3, 0.0], q=[0.0, 0.2])


@pytest.fixture
def chain_b():
    # three states; pi = (1/6, 1/3, 1/2)
    return make_bd(p=[0.2, 0.3, 0.0], q=[0.0, 0.1, 0.2])


@pytest.fixture
def pipeline_a(chain_a):
    P = bd_kernel(chain_a)
    return P, build_intertwining(P, siegmund_function(1), siegmund_dual(P).dual)


@pytest.fixture
def pipeline_b(chain_b):
    P = bd_kernel(chain_b)
    return P, build_intertwining(P, siegmund_function(2), siegmund_dual(P).dual)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _direct_residuals(P, H, dual, res) -> dict:
    """Each identity build_intertwining reads off the duality residual,
    measured from its own n x n products, against Pbar = res.back: the
    reference of those readings."""
    m, d, pt, back = (np.asarray(v, dtype=float) for v in (P, dual, res.p_tilde, res.back))
    weighted, K = H.matrix.T * res.pi[None, :], res.K       # H' D_pi, H D_phi^{-1}
    R = K @ pt.T - m @ K
    scale = K @ pt.T + m @ K                                  # every factor is nonnegative
    return {"weighted_duality": sup_norm(d @ weighted - weighted @ back),
            "intertwining": sup_norm(pt @ res.link - res.link @ back),
            "k_duality": sup_norm(R),
            "k_duality_scaled": sup_norm(np.divide(np.abs(R), scale, out=np.zeros_like(R),
                                                   where=scale > 0))}


@pytest.fixture(scope="session")
def direct_residuals():
    return _direct_residuals


@pytest.fixture(scope="session")
def agrees(direct_residuals):
    """Whether the readings of ``res`` agree with ``direct_residuals`` within
    1e-14; the absolute K residual within 1e-14 max K, as its products carry
    the rounding of entries that size."""
    def check(P, H, dual, res) -> bool:
        ref, d = direct_residuals(P, H, dual, res), res.diagnostics
        scale = {"k_duality": max(1.0, float(res.K.max()))}
        return all(abs(d[k] - v) <= 1e-14 * scale.get(k, 1.0) for k, v in ref.items())
    return check
