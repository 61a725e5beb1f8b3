"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Criterion 5 needs the optional CRU/MOD17 extracts (see
test_paper_fixture.py) and is skipped without them; everything else runs on
synthetic data only.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

import socchange as sc
from socchange.climate import ReferenceState
from socchange.sensitivity import AveragedModel, build_averaged_model

from conftest import (alta_murgia_available, alta_murgia_scenario,
                      make_scenario, needs_alta_murgia, with_year)
from kernel_oracles import (nonstandard_step, nonstandard_step_incremental,
                            phi_matrix, transition_matrix)

T = 12.0


def _report(number: int, name: str, elapsed: float, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {name}: {status} ({elapsed:.2f} s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _check_runtime(failures: list, elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit:g}s")


def test_criterion_1_equilibrium_preservation():
    failures = []
    params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
    mats = sc.build_matrices(params)
    rho0 = 0.55
    b = (1.0 * mats.a_g + 0.3 * mats.a_f) / T
    cstar = sc.equilibrium_pools(1.0, 0.3, rho0, mats, T)

    start = time.perf_counter()
    fmat = transition_matrix(1.0, rho0, mats)
    phib = phi_matrix(1.0, rho0, mats) @ b
    c = cstar.copy()
    worst = 0.0
    for _ in range(15 * 12):
        c = fmat @ c + phib
        worst = max(worst, float(np.max(np.abs(c - cstar) / cstar)))
    c_rd = cstar.copy()
    worst_rd = 0.0
    for _ in range(15 * 12):
        c_rd = fmat @ c_rd + b
        worst_rd = max(worst_rd, float(np.max(np.abs(c_rd - cstar) / cstar)))
    elapsed = time.perf_counter() - start

    if worst > 1e-9:
        failures.append(f"non-standard drift {worst:.2e} exceeds 1e-9")
    if worst_rd <= worst:
        failures.append("original discrete step did not drift more")
    _check_runtime(failures, elapsed, 1.0)
    _report(1, "equilibrium preservation over 15 years", elapsed, failures)


def test_criterion_2_scheme_equivalence_and_order():
    failures = []
    params = sc.SoilParams.for_site(50.0, 23.0, 1.0)
    mats = sc.build_matrices(params)
    rng = np.random.default_rng(2024)

    start = time.perf_counter()
    worst_gap = 0.0
    for _ in range(1000):
        state = rng.standard_normal(4)
        forcing = rng.standard_normal(4)
        dt = rng.uniform(0.05, 2.0)
        rho = rng.uniform(0.05, 2.0)
        via_inc = nonstandard_step_incremental(state, dt, rho, forcing, mats)
        via_trans = nonstandard_step(state, dt, rho, forcing, mats)
        scale = max(1.0, float(np.max(np.abs(via_trans))))
        worst_gap = max(worst_gap, float(np.max(np.abs(via_inc - via_trans)))
                        / scale)

    rho = 0.5
    b = 0.7 * mats.a_g / T
    c0 = np.array([0.5, 3.0, 0.4, 9.0])
    cstar = -np.linalg.solve(rho * mats.A, b)
    exact = cstar + sla.expm(T * rho * mats.A) @ (c0 - cstar)
    errors = []
    for dt in (1.0, 0.5, 0.25, 0.125):
        fmat = transition_matrix(dt, rho, mats)
        phib = dt * (phi_matrix(dt, rho, mats) @ b)
        c = c0.copy()
        for _ in range(int(T / dt)):
            c = fmat @ c + phib
        errors.append(float(np.max(np.abs(c - exact))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    elapsed = time.perf_counter() - start

    if worst_gap > 1e-12:
        failures.append(f"step forms differ by {worst_gap:.2e}")
    if np.any(np.abs(orders - 1.0) > 0.15):
        failures.append(f"convergence orders {orders} outside 1.0 +/- 0.15")
    _check_runtime(failures, elapsed, 5.0)
    _report(2, "scheme equivalence and first-order convergence", elapsed,
            failures)


def _synthetic_averaged(temp_shift, acc1, np1, site) -> AveragedModel:
    ref = ReferenceState(temp0=13.5, acc0=-18.0, site=site)
    return AveragedModel(temps=np.array([13.5 + temp_shift]),
                         accs=np.array([acc1]), np_ratios=np.array([np1]),
                         reference=ref, T=T)


def test_criterion_3_closed_form_cross_check(site50):
    failures = []
    cases = [
        (0.8, -25.0, 1.05, 0.67),
        (-0.5, -10.0, 0.98, 1.44),
        (1.5, -30.0, 1.02, 0.25),
    ]
    start = time.perf_counter()
    for temp_shift, acc1, np1, r in cases:
        avg = _synthetic_averaged(temp_shift, acc1, np1, site50)
        params = sc.SoilParams.for_site(50.0, 23.0, r)
        mats = sc.build_matrices(params)
        times, states = sc.averaged_delta_solve(avg, r, mats, dt=5e-5,
                                                n_years=1)
        for i in range(1, 13):
            exact = sc.closed_form_first_year(times[i], avg, r, mats)
            gap = float(np.max(np.abs(states[i] - exact)))
            if gap > 1e-8:
                failures.append(f"case r={r}: month {i} gap {gap:.2e}")
                break
    elapsed = time.perf_counter() - start
    _check_runtime(failures, elapsed, 1.0)
    _report(3, "closed-form first-year cross-check", elapsed, failures)


def test_criterion_4_sensitivity_correctness():
    failures = []
    scen = make_scenario(r=0.67, warming=0.08, np_trend=0.012, seed=4)
    avg = build_averaged_model(scen)
    h, dt = 1e-4, 0.01

    def dsoc_end(averaged, r, params, n_years):
        mats = sc.build_matrices(params)
        _, states = sc.averaged_delta_solve(averaged, r, mats, dt=dt,
                                            n_years=n_years)
        return float(states[-1].sum())

    start = time.perf_counter()
    series = {p: sc.sensitivity(p, scen, dt=dt, record_all=True)
              for p in ("temp1", "np1", "r")}

    fd = {}
    p = scen.params
    fd["temp1"] = (dsoc_end(with_year(avg, "temps", 1, avg.temps[0] + h),
                            0.67, p, 1)
                   - dsoc_end(with_year(avg, "temps", 1, avg.temps[0] - h),
                              0.67, p, 1)) / (2 * h)
    fd["np1"] = (dsoc_end(with_year(avg, "np_ratios", 1, avg.np_ratio(1) + h),
                          0.67, p, 1)
                 - dsoc_end(with_year(avg, "np_ratios", 1,
                                      avg.np_ratio(1) - h), 0.67, p, 1)
                 ) / (2 * h)
    fd["r"] = (dsoc_end(avg, 0.67 + h, sc.SoilParams.for_site(
                   p.cly, p.d, 0.67 + h, eta=p.eta, T=p.T), 1)
               - dsoc_end(avg, 0.67 - h, sc.SoilParams.for_site(
                   p.cly, p.d, 0.67 - h, eta=p.eta, T=p.T), 1)) / (2 * h)

    for param in ("temp1", "np1"):
        got = float(series[param].s_dsoc[-1])
        if abs(got - fd[param]) > 1e-3 * abs(fd[param]):
            failures.append(f"{param}: direct {got:.6e} vs FD "
                            f"{fd[param]:.6e}")
    end_year1 = int(np.argmin(np.abs(series["r"].t - 2 * T)))
    got_r = float(series["r"].s_dsoc[end_year1])
    if abs(got_r - fd["r"]) > 1e-3 * abs(fd["r"]):
        failures.append(f"r: direct {got_r:.6e} vs FD {fd['r']:.6e}")

    year1 = {p: s.s_dsoc[(s.t >= T) & (s.t <= 2 * T)]
             for p, s in series.items()}
    if year1["temp1"].max() > 0:
        failures.append("temp1 sensitivity positive within year 1")
    if year1["np1"].min() < 0:
        failures.append("np1 sensitivity negative within year 1")
    th1 = sc.theta(1, avg)
    if th1 > 0 and year1["r"].max() > 1e-15:
        failures.append("r sensitivity sign does not oppose a positive "
                        "imbalance")
    if th1 < 0 and year1["r"].min() < -1e-15:
        failures.append("r sensitivity sign does not oppose a negative "
                        "imbalance")
    elapsed = time.perf_counter() - start
    _check_runtime(failures, elapsed, 10.0)
    _report(4, "direct sensitivities vs finite differences and signs",
            elapsed, failures)


@needs_alta_murgia
def test_criterion_5_paper_value_reproduction():
    failures = []
    start = time.perf_counter()
    scen = alta_murgia_scenario(r=1.44)
    temp1, _ = sc.annual_averages(scen.site.climate, 2006)
    if round(temp1, 2) != 14.27:
        failures.append(f"Temp1 {temp1:.4f} != 14.27")
    np1 = scen.site.np_by_year[1]
    if abs(np1 - 1.08) > 0.005 * 1.08:
        failures.append(f"NPP ratio {np1:.4f} not within 0.5% of 1.08")
    avg = build_averaged_model(scen)
    th1 = sc.theta(1, avg)
    if abs(th1 - 4.3620e-4) > 0.02 * 4.3620e-4:
        failures.append(f"imbalance {th1:.6e} not within 2% of 4.3620e-4")

    for r in (1.44,):
        means = sc.simulate(alta_murgia_scenario(r=r)).annual_means()
        tail = [means[y] for y in range(2008, 2020)]
        if not all(v < 0 for v in tail):
            failures.append(f"arable r={r} annual means not all negative")
        if not all(b < a for a, b in zip(tail, tail[1:])):
            failures.append(f"arable r={r} annual means not decreasing")

    grass = sc.simulate(alta_murgia_scenario(r=0.95)).annual_means()
    if not all(grass[y] > 0 for y in range(2011, 2020)):
        failures.append("grassland r=0.95 not positive from 2011")

    finals = {}
    for r in (1e-4, 0.25, 0.5):
        finals[r] = sc.simulate(alta_murgia_scenario(r=r)).annual_means()[2019]
    spread = max(finals.values()) - min(finals.values())
    if spread > 0.10 * max(abs(v) for v in finals.values()):
        failures.append(f"forest 2019 values spread {spread:.3e} beyond 10%")
    elapsed = time.perf_counter() - start
    _check_runtime(failures, elapsed, 30.0)
    _report(5, "published site values and trends", elapsed, failures)


def test_criterion_6_control_guarantee():
    failures = []
    scenarios = {
        "warming-arable": make_scenario(r=1.0, F0=0.5, P0=0.5, warming=0.15,
                                        np_trend=0.0, seed=7),
        "volatile-npp": make_scenario(r=1.44, F0=0.3, P0=0.9, warming=0.05,
                                      np_trend=-0.005, seed=21),
        "grassland-mix": make_scenario(r=0.67, F0=1.0, P0=0.2, warming=0.1,
                                       np_trend=0.004, seed=33),
    }
    if alta_murgia_available():
        scenarios["alta-murgia"] = alta_murgia_scenario(r=1.0, F0=0.5, P0=0.5)
    eps_sweep = (0.0, 0.2, 0.5, 0.8)

    start = time.perf_counter()
    for name, scen in scenarios.items():
        means = {}
        for eps in eps_sweep:
            traj, _ = sc.simulate_controlled(scen, eps)
            floor = float(traj.totals.min())
            if floor < -1e-9:
                failures.append(f"{name} eps={eps}: floor {floor:.2e}")
            if eps == 0.0 and float(np.max(np.abs(traj.totals))) > 1e-9:
                failures.append(f"{name}: eps=0 run leaves zero")
            means[eps] = traj.annual_means()
        for lo, hi in zip(eps_sweep[:-1], eps_sweep[1:]):
            for year in means[lo]:
                if means[hi][year] < means[lo][year] - 1e-12:
                    failures.append(f"{name}: annual mean not monotone at "
                                    f"{year} ({lo}->{hi})")
                    break
    elapsed = time.perf_counter() - start
    _check_runtime(failures, elapsed, 10.0)
    _report(6, "controlled index floor and epsilon monotonicity", elapsed,
            failures)


def test_criterion_7_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(77)
    setups = []
    for i in range(5):
        r = float(rng.choice([0.25, 0.67, 1.0, 1.44, 3.0]))
        f0 = float(rng.choice([0.0, 0.4]))
        fym = sc.FymPolicy()
        if f0 > 0:
            fym = sc.FymPolicy(mode="fixed",
                               monthly_density=rng.uniform(0, 0.08, 12))
        setups.append(make_scenario(
            r=r, F0=f0, P0=1.0, seed=100 + i,
            warming=float(rng.uniform(-0.05, 0.15)),
            np_trend=float(rng.uniform(-0.01, 0.02)), fym=fym))

    start = time.perf_counter()
    for i, scen in enumerate(setups):
        for mode in ("delta", "absolute"):
            traj = sc.simulate(scen, mode=mode)
            ref = sc.rk4_reference(scen, mode=mode, refine=100)
            change = np.abs(ref.totals - ref.totals[0])
            denom = float(np.max(change))
            gap = float(np.max(np.abs(traj.totals - ref.totals)))
            if gap > 0.02 * denom:
                failures.append(f"scenario {i} {mode}: {gap:.3e} vs "
                                f"2% of {denom:.3e}")
    elapsed = time.perf_counter() - start
    _check_runtime(failures, elapsed, 60.0)
    _report(7, "fine-step fourth-order oracle equivalence", elapsed, failures)


def test_criterion_8_climatology_units(site50):
    failures = []
    start = time.perf_counter()

    month_days = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
    expected_pet = np.array([
        22.347302714488915, 24.666541850642919, 32.355102901050323,
        36.264717143865042, 42.656419518542451, 46.352156639572109,
        53.190708634333229, 58.532517356434993, 61.857101999264034,
        69.347060693794312, 72.400641548416612, 80.317467493775022,
    ])
    pet = sc.thornthwaite_pet(np.arange(5.0, 17.0), np.full(12, 12.0),
                              month_days)
    if np.max(np.abs(pet - expected_pet) / expected_pet) > 1e-9:
        failures.append("Thornthwaite ramp mismatch")

    acc = sc.accumulated_deficit(np.zeros(12), np.full(12, 10.0), -60.0)
    expected_acc = np.array([-10, -20, -30, -40, -50, -60,
                             -60, -60, -60, -60, -60, -60], dtype=float)
    if np.max(np.abs(acc - expected_acc)) > 1e-9:
        failures.append("deficit recurrence mismatch")

    if abs(sc.rate_modifier_temperature(14.27, 14.27) - 1.0) > 1e-12:
        failures.append("k_a not anchored to 1 at the reference")
    if sc.rate_modifier_moisture(0.0, site50) != 1.0:
        failures.append("k_b wet endpoint not exactly 1")
    if sc.rate_modifier_moisture(site50.M, site50) != pytest.approx(
            0.2, abs=1e-15):
        failures.append("k_b dry endpoint not 0.2")
    elapsed = time.perf_counter() - start
    _report(8, "climatology units and endpoint values", elapsed, failures)
