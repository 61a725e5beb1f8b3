"""Properties of the blocked month chain behind ``simulate`` and the RK4
reference, and of the controlled month loop behind ``simulate_controlled``.

``affine_recurrence`` cuts its n month maps into blocks of about √(n/3)
months, so the tests draw n across the block boundaries, from fewer months
than a century's block (20) to 1 500, and check that:
- the states stay within 1e-12 of the largest state of the step-by-step
  oracle;
- month-varying maps that share a fixed point keep it within 1e-14 of its
  largest entry;
- absolute-mode pools stay non-negative on random sites, for both schemes.

``controlled_recurrence`` clamps the manure factor in its state, so on
random sites (r, clay, climate seed, 1-30 years, ε) the tests check that:
- states and f0 stay within 1e-12 × max(1, max|oracle|) of the feedback
  law's loop, with the same clamped months;
- at ε = 0 ``simulate_controlled`` returns Δc = 0 and f0 = q = ρ/(T ρ0)
  exactly, and the month loop it skips there holds Δc at 0 within 1e-15
  of ``simulate``'s state scale, with its factor within 1e-15 relative of
  q and never clamped (the scheme keeps the baseline equilibrium, Anguelov
  & Lubuma 2001);
- the annual means do not decrease as ε grows;
- stepping the site's shared month-map views gives the states of stepping
  one (n, 7, 7) block bit for bit, and every view is a read-only view of
  that block.

``stepping._pool_sum`` adds the four pool columns left to right from 0.0;
it must equal numpy's ``sum(axis=1)`` bit for bit, including the sign of
a row of -0.0, so that every total written stays as it was. How the
reduction orders its adds and treats -0.0 is numpy's choice, so the test
runs at both ends of the supported numpy range.

The example count comes from the Hypothesis profile (``--hypothesis-profile
=ci`` runs 1 000 per test).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import socchange as sc
from socchange import _kernels
from socchange.stepping import _pool_sum

import kernel_oracles as oracle
from conftest import make_scenario
from test_kernels import _assert_controlled_matches_oracle

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


@st.composite
def _controlled_site(draw):
    """A site with a baseline manure input F0, for controlled runs."""
    return make_scenario(r=draw(st.sampled_from([0.25, 0.67, 1.44])),
                         cly=draw(st.floats(5.0, 80.0)),
                         horizon=draw(st.integers(1, 30)),
                         seed=draw(st.integers(0, 2**16)), F0=0.5, P0=0.5,
                         warming=0.15)


_EPSILON = st.floats(0.0, 1.0 - 1e-12)


@_SETTINGS
@given(scenario=_controlled_site(), eps=_EPSILON)
def test_controlled_loop_matches_the_feedback_law(scenario, eps):
    _assert_controlled_matches_oracle(scenario, eps)


@_SETTINGS
@given(scenario=_controlled_site())
def test_zero_share_holds_the_index_at_its_floor(scenario):
    site = scenario.site
    q = site.month_operators.rhos / (site.params.T * site.baseline.rho0)
    traj, schedule = sc.simulate_controlled(scenario, 0.0)
    np.testing.assert_array_equal(traj.states, 0.0)
    np.testing.assert_array_equal(traj.totals, 0.0)
    np.testing.assert_array_equal(schedule.f0, q)
    # the closed form is the loop's exact solution: stepped, it holds the
    # state at round-off, and its factor, never clamped, at q
    scale = float(np.abs(sc.simulate(sc.Scenario(site)).states).max())
    maps, first = site.control_maps
    x = _kernels.controlled_recurrence(maps, np.array((0, 0, 0, 0, 1, 0.0,
                                                       first[4])))
    assert np.abs(x[:, :4]).max() <= 1e-15 * scale
    assert np.all(x[:-1, 6] > 0.0)
    gap = np.abs(x[:-1, 6] - q)
    assert np.all(gap <= 1e-15 * q), float((gap / q).max())


@_SETTINGS
@given(scenario=_controlled_site(),
       shares=st.lists(_EPSILON, min_size=2, max_size=3, unique=True))
def test_annual_means_do_not_decrease_with_the_share(scenario, shares):
    means = [np.array(list(sc.simulate_controlled(scenario, eps)[0]
                           .annual_means().values()))
             for eps in sorted(shares)]
    for lo, hi in zip(means, means[1:]):
        assert np.all(hi >= lo - 1e-12), float((lo - hi).max())


@_SETTINGS
@given(scenario=_controlled_site(), eps=_EPSILON)
def test_shared_views_step_like_one_block(scenario, eps):
    views, first = scenario.site.control_maps
    block = views[0].base
    assert views.ndim == 1 and views.shape[0] == block.shape[0]
    assert block.shape == (12 * scenario.site.horizon, 7, 7)
    assert not views.flags.writeable and not block.flags.writeable
    for j, view in enumerate(views):
        assert view.shape == (7, 7) and not view.flags.writeable
        assert np.shares_memory(view, block[j])
    x0 = np.array((0, 0, 0, 0, 1, eps, first[4] + eps * first[5]))
    got = _kernels.controlled_recurrence(views, x0)
    want = _kernels.controlled_recurrence(np.stack(views), x0)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# ±0.0, the subnormal range and magnitudes up to 1e308, whose sums may
# overflow to ±inf and, from inf - inf, to nan
_POOL = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                   2.2250738585072014e-308, 1e308, -1e308]),
                  st.floats(-1e-300, 1e-300),
                  st.floats(-1e308, 1e308))


@_SETTINGS
@given(pools=hnp.arrays(np.float64, st.tuples(st.integers(1, 40),
                                              st.sampled_from([4, 7])),
                        elements=_POOL),
       zero_row=st.integers(0, 39))
def test_pool_sum_is_the_row_reduction_bit_for_bit(pools, zero_row):
    zero_row %= pools.shape[0]
    pools[zero_row, :4] = -0.0
    a = pools[:, :4]   # four pool columns, strided when drawn 7 wide
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _pool_sum(a), a.sum(axis=1)
    assert not np.signbit(got[zero_row])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
