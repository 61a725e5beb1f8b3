"""Step-by-step loop forms of the kernels in socchange._kernels.

The kernels compute these recurrences as matrix powers or as one augmented
map per month; the loops take one plain step at a time and are the reference
the kernel tests compare against.
The control loop here writes the feedback law from α, β, δ, φ(-τk) and the
clamp; the engine steps the same law as a clamped affine input.
The one-step maps take F and φ(-τk) from the production code in
``socchange.stepping._step_factors``, and ``phi_matrix`` forms the matrix
φ(τÃ) from them, which no run path builds; ``nonstandard_step_incremental`` is
the scheme's other algebraic form, the reference for the transition form the
engine steps with. ``maintenance_rate`` is the continuous manure law that the
discrete control law tends to as Δt → 0. ``exact_flow`` is the exact monthly
flow that the one-step schemes approximate, from A's eigendecomposition.
``exact_averaged`` is the exact year-end solution of the averaged model and
of a parameter's sensitivity, which ``sensitivity`` co-integrates.
"""

import numpy as np
import scipy.linalg as sla

from socchange.errors import ConfigError
from socchange.pools import DPM_RPM_SHIFT
from socchange.sensitivity import (build_averaged_model, drho_dr, drho_dtemp,
                                   theta)
from socchange.stepping import _monthly_forcing, _step_factors, phi1_scalar


def transition_matrix(dt, rho, mats):
    """F(Δt rho) = Λ + (I-Λ) diag(e^{-Δt rho k})."""
    return _step_factors(dt * rho, mats)[1]


def phi_matrix(dt, rho, mats):
    """φ(Δt rho Ã) = (I-Λ) diag(φ(-Δt rho k)) (I-Λ)^{-1}, as a matrix."""
    phiv = _step_factors(dt * rho, mats)[2]
    return (mats.i_minus_lambda * phiv[..., None, :]) @ mats.i_minus_lambda_inv


def nonstandard_step(state, dt, rho, b, mats):
    """The transition form F(Δt rho) c + Δt φ(Δt rho Ã) b."""
    return (transition_matrix(dt, rho, mats) @ state
            + dt * (phi_matrix(dt, rho, mats) @ b))


def rothc_discrete_step(state, dt, rho, b, mats):
    """The original discrete RothC update F(Δt rho) c + Δt b."""
    return transition_matrix(dt, rho, mats) @ state + dt * np.asarray(b)


def nonstandard_step_incremental(state, dt, rho, b, mats):
    """c + Δt φ(Δt rho Ã)(rho A c + b); equals F(Δt rho) c + Δt φ(Δt rho Ã) b."""
    return state + dt * (phi_matrix(dt, rho, mats) @ (rho * (mats.A @ state) + b))


def exact_flow(scenario, mode="delta", schedule=None):
    """Month-end states of the exact flow of c' = ρ_j A c + b_j, on the
    forcing b_j that ``simulate`` and ``rk4_reference`` step, from where they
    start. With A = V diag(λ) V^{-1} (λ real and distinct) and τ = Δt ρ_j,
    each month maps c <- V(e^{τλ} ⊙ V^{-1} c + Δt φ(τλ) ⊙ V^{-1} b_j).

    Given a ``ControlSchedule``, the delta forcing takes its share ε and its
    per-month manure density f in place of the scenario's policy:
    b_j = ε(N_P ĝ - q)_j a_g + (1 - ε)(f_j/F0 - q_j) a_f."""
    lam, vecs = np.linalg.eig(scenario.mats.A)
    record = scenario.site.month_operators
    if schedule is None:
        bvecs = _monthly_forcing(scenario, mode)
    else:
        eps, mats = schedule.epsilon, scenario.mats
        g = eps * (record.supply - record.q)
        f = (1.0 - eps) * (schedule.f / schedule.meta["F0"] - record.q)
        bvecs = g[:, None] * mats.a_g + f[:, None] * mats.a_f
    zs = (record.dt * record.rhos)[:, None] * lam
    inputs = (record.dt[:, None] * phi1_scalar(zs)
              * np.linalg.solve(vecs, bvecs.T).T)
    c = np.zeros(4) if mode == "delta" else scenario.baseline.c0.astype(float)
    out = np.empty((len(zs) + 1, 4))
    out[0] = c
    for j in range(len(zs)):
        c = vecs @ (np.exp(zs[j]) * np.linalg.solve(vecs, c) + inputs[j])
        out[j + 1] = c
    return out


def exact_averaged(scenario, parameter):
    """Year-end (s, c) of the averaged model's exact solution, year 0 first.

    In delta year n the state solves c' = ρⁿA c + θⁿa_g and the sensitivity
    to ``parameter`` s' = ρⁿA s + κ_n A c + ω_n v, both from zero at the
    end of the baseline year, with κ_n, ω_n and v built as ``sensitivity``
    builds them. The year maps [s; c; 1] by e^{T M_n}, M_n =
    [[ρⁿA, κ_n A, ω_n v], [0, ρⁿA, θⁿa_g], [0, 0, 0]] (Van Loan, IEEE TAC
    1978). temp1 and np1 cover the first delta year, r the horizon.
    """
    avg = build_averaged_model(scenario)
    mats, r, ref = scenario.mats, scenario.r, avg.reference
    years = np.arange(1, avg.horizon + 1)
    v = mats.a_g
    if parameter == "temp1":
        kappa = np.array([drho_dtemp(avg.temps[0], ref.temp0, avg.accs[0],
                                     ref.site, r, ref.n_bare)])
        omega = -kappa / (avg.T * ref.rho0(r))
    elif parameter == "np1":
        kappa, omega = np.zeros(1), np.array([1.0 / avg.T])
    else:
        kappa = drho_dr(avg.temps, ref.temp0, avg.accs, ref.site, r,
                        ref.n_bare)
        omega = theta(years, avg) / (r + 1.0) ** 2
        v = DPM_RPM_SHIFT
    x = np.zeros(9)
    x[8] = 1.0
    out = [x[:8]]
    for n, k, w in zip(years, kappa, omega):
        m = np.zeros((9, 9))
        m[:4, :4] = m[4:8, 4:8] = avg.rho_n(n, r) * mats.A
        m[:4, 4:8] = k * mats.A
        m[:4, 8] = w * v
        m[4:8, 8] = theta(n, avg) * mats.a_g
        x = sla.expm(avg.T * m) @ x
        out.append(x[:8])
    out = np.array(out)
    return out[:, :4], out[:, 4:]


def maintenance_rate(delta_c, rho, ghat, np_ratio, epsilon, T, rho0, delta, k):
    """rho/(1-eps) [delta k^T delta_c + 1/(T rho0)] - eps/(1-eps) N_P ghat."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")
    bracket = delta * float(np.asarray(k) @ np.asarray(delta_c)) + 1.0 / (T * rho0)
    return rho * bracket / (1.0 - epsilon) - epsilon * np_ratio * ghat / (1.0 - epsilon)


def affine_recurrence(fmats, gvecs, c0):
    n = fmats.shape[0]
    out = np.empty((n + 1, 4))
    out[0] = c0
    c = c0.copy()
    for j in range(n):
        c = fmats[j] @ c + gvecs[j]
        out[j + 1] = c
    return out


def affine_recurrence_const(fmat, gvec, c0, nsteps, record_every):
    nsamples = nsteps // record_every
    out = np.empty((nsamples, 4))
    c = c0.copy()
    idx = 0
    for j in range(nsteps):
        c = fmat @ c + gvec
        if (j + 1) % record_every == 0:
            out[idx] = c
            idx += 1
    return out


def sensitivity_recurrence(fmat, dt, coup, w, bc, c0, s0, nsteps, record_every):
    nsamples = nsteps // record_every
    cs = np.empty((nsamples, 4))
    ss = np.empty((nsamples, 4))
    c = c0.copy()
    s = s0.copy()
    idx = 0
    for j in range(nsteps):
        s = fmat @ s + dt * (coup @ c + w)
        c = fmat @ c + dt * bc
        if (j + 1) % record_every == 0:
            cs[idx] = c
            ss[idx] = s
            idx += 1
    return cs, ss


def rk4_piecewise(amats, bvecs, dts, nsub, c0):
    n = amats.shape[0]
    out = np.empty((n + 1, 4))
    out[0] = c0
    c = c0.copy()
    for j in range(n):
        m = amats[j]
        b = bvecs[j]
        h = dts[j] / nsub
        for _ in range(nsub):
            k1 = m @ c + b
            k2 = m @ (c + 0.5 * h * k1) + b
            k3 = m @ (c + 0.5 * h * k2) + b
            k4 = m @ (c + h * k3) + b
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j + 1] = c
    return out


def controlled_recurrence(fmats, phimats, eks, phivs, dts, epsg, qs, ag, af,
                          alpha, beta, delta, eps):
    n = fmats.shape[0]
    out = np.empty((n + 1, 4))
    f0s = np.empty(n)
    c = np.zeros(4)
    out[0] = c
    for j in range(n):
        phiv = phivs[j]
        trail = alpha * phiv[2] + beta * phiv[3]
        # w[i] = 1^T phi(tau*Atilde) column weights
        w = delta * phiv + trail
        wg = w @ ag
        wf = w @ af
        decay = (delta / dts[j]) * ((1.0 - eks[j]) @ c)
        f0 = qs[j] + (decay - epsg[j] * wg) / ((1.0 - eps) * wf)
        if f0 < 0.0:
            f0 = 0.0
        f0s[j] = f0
        b = epsg[j] * ag + (1.0 - eps) * (f0 - qs[j]) * af
        c = fmats[j] @ c + phimats[j] @ b
        out[j + 1] = c
    return out, f0s
