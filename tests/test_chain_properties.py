"""Properties of the blocked month chain behind ``simulate`` and the RK4
reference.

``affine_recurrence`` cuts its n month maps into blocks of about √(n/3)
months, so the tests draw n across the block boundaries, from fewer months
than a century's block (20) to 1 500, and check that:
- the states stay within 1e-12 of the largest state of the step-by-step
  oracle;
- month-varying maps that share a fixed point keep it within 1e-14 of its
  largest entry;
- absolute-mode pools stay non-negative on random sites, for both schemes.

The example count comes from the Hypothesis profile (``--hypothesis-profile
=ci`` runs 1 000 per test).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import socchange as sc
from socchange import _kernels

import kernel_oracles as oracle
from conftest import make_scenario

TOL = 1e-12
_SETTINGS = settings(deadline=None)  # the example count comes from the profile

# single-block chains, and chains whose last block is full, one month short
# or one month over (blocks of 20 at 1 200 months, of 22 at 1 500)
_MONTHS = st.one_of(st.integers(1, 1500),
                    st.sampled_from([1, 2, 6, 7, 8, 12, 13, 1199, 1200, 1201,
                                     1499, 1500]))


def _contractive_months(seed, n):
    """n random maps (F, g), each F scaled to a Frobenius norm, and so a
    2-norm, of at most 0.999, and a start c0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, 4, 4))
    scale = rng.uniform(0.1, 0.999, n) / np.sqrt((a * a).sum(axis=(1, 2)))
    return (a * scale[:, None, None], rng.uniform(-1.0, 1.0, (n, 4)),
            rng.uniform(-1.0, 1.0, 4))


@_SETTINGS
@given(n=_MONTHS, seed=st.integers(0, 2**32 - 1))
def test_chain_matches_the_loop_and_keeps_a_fixed_point(n, seed):
    fmats, gvecs, c0 = _contractive_months(seed, n)
    got = _kernels.affine_recurrence(fmats, gvecs, c0)
    want = oracle.affine_recurrence(fmats, gvecs, c0)
    assert got.shape == want.shape == (n + 1, 4)
    gap = float(np.max(np.abs(got - want)))
    assert gap <= TOL * float(np.max(np.abs(want))), gap
    # the same maps, with each g moved so that c0 is every month's fixed point
    gfixed = np.einsum("jab,b->ja", np.eye(4) - fmats, c0)
    states = _kernels.affine_recurrence(fmats, gfixed, c0)
    gap = float(np.max(np.abs(states - c0)))
    assert gap <= 1e-14 * float(np.max(np.abs(c0))), gap


@_SETTINGS
@given(r=st.floats(0.05, 3.0), cly=st.floats(5.0, 80.0),
       horizon=st.integers(1, 100), seed=st.integers(0, 2**16),
       warming=st.floats(-0.1, 0.2),
       scheme=st.sampled_from(["nonstandard", "rothc_discrete"]))
def test_absolute_pools_stay_non_negative(r, cly, horizon, seed, warming,
                                          scheme):
    scenario = make_scenario(r=r, cly=cly, horizon=horizon, seed=seed,
                             warming=warming)
    states = sc.simulate(scenario, scheme, "absolute").states
    assert states.shape == (12 * horizon + 1, 4)
    assert states.min() >= 0.0
