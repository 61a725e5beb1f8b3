"""Kernels: monthly stepping, sub-monthly solves, RK4 reference, feedback control.

The month-varying recurrences are plain loops over preallocated float64
arrays: ``affine_recurrence``, and ``controlled_recurrence``, a generic clamped
affine loop whose input factor is an affine function of the state, clamped at
zero. The constant-coefficient ones are closed-form: an affine step
c <- F c + g is the linear step of the augmented matrix [[F, g], [0, 1]] on
[c; 1] (Van Loan, IEEE TAC 1978), so k steps are one matrix power of it.
"""

import numpy as np


def _augmented(fmats, gvecs):
    """Stack [[F, g], [0, 1]] for each (F, g); fmats (..., n, n), gvecs (..., n)."""
    n = fmats.shape[-1]
    aug = np.zeros(fmats.shape[:-2] + (n + 1, n + 1))
    aug[..., :n, :n] = fmats
    aug[..., :n, n] = gvecs
    aug[..., n, n] = 1.0
    return aug


def affine_recurrence(fmats, gvecs, c0):
    """Iterate c_{j+1} = F_j c_j + g_j, returning all states incl. c0.

    fmats: (n, 4, 4), gvecs: (n, 4), c0: (4,). Returns (n+1, 4).
    """
    n = fmats.shape[0]
    out = np.empty((n + 1, 4))
    out[0] = c0
    c = c0.copy()
    for j in range(n):
        c = fmats[j] @ c + gvecs[j]
        out[j + 1] = c
    return out


def affine_recurrence_const(fmat, gvec, c0, nsteps, record_every):
    """Constant-coefficient recurrence c <- F c + g, sampled every ``record_every`` steps.

    Returns (nsteps // record_every, n) where the first row is the state after
    ``record_every`` steps (c0 itself is not recorded). Steps past the last
    full stride are not taken. The stride matrix P is one matrix power; the
    samples are filled by doubling, rows [m, 2m) being P^m applied to rows
    [0, m).
    """
    n = c0.shape[0]
    nsamples = nsteps // record_every
    out = np.empty((nsamples, n + 1))
    if nsamples == 0:
        return out[:, :n]
    power = np.linalg.matrix_power(_augmented(fmat, gvec), record_every)
    out[0] = power @ np.append(c0, 1.0)
    done = 1
    while done < nsamples:
        take = min(done, nsamples - done)
        out[done:done + take] = out[:take] @ power.T
        power = power @ power
        done += take
    return out[:, :n]


def sensitivity_recurrence(fmat, phimat, coup, w, bc, c0, s0, nsteps, record_every):
    """Co-integrate state and sensitivity with frozen left-endpoint coupling.

    Per step (state c, sensitivity s):
        s <- F s + Phi (coup @ c + w)
        c <- F c + Phi bc
    which is one constant affine step of [s; c] with the block matrix
    [[F, Phi coup], [0, F]] and forcing [Phi w; Phi bc].
    Samples every ``record_every`` steps. Returns (c_samples, s_samples).
    """
    block = np.block([[fmat, phimat @ coup], [np.zeros((4, 4)), fmat]])
    forcing = np.concatenate((phimat @ w, phimat @ bc))
    samples = affine_recurrence_const(block, forcing, np.concatenate((s0, c0)),
                                      nsteps, record_every)
    return samples[:, 4:], samples[:, :4]


def rk4_piecewise(amats, bvecs, dts, nsub, c0):
    """Classical RK4 over piecewise-constant linear months y' = M_j y + b_j.

    amats: (n, 4, 4) per-month M = rho*A, bvecs: (n, 4), dts: (n,) month
    lengths, nsub substeps per month. Returns end-of-month states (n+1, 4)
    including the initial state.

    One RK4 step of y' = M y + b is the matrix polynomial
    R(z) = I + z(I + z/2(I + z/3(I + z/4))) of z = h [[M, b], [0, 0]] acting
    on [y; 1], so a month is R^nsub.
    """
    h = dts / nsub
    z = h[:, None, None] * _augmented(amats, bvecs)
    z[:, 4, 4] = 0.0
    eye = np.eye(5)
    poly = eye + z / 4.0
    for k in (3.0, 2.0, 1.0):
        poly = eye + (z / k) @ poly
    month = np.linalg.matrix_power(poly, nsub)
    return affine_recurrence(month[:, :4, :4], month[:, :4, 4], c0)


def controlled_recurrence(fmats, gvecs, vvecs, avals, uvecs):
    """Clamped affine loop c <- F_j c + g_j + f_j v_j, f_j = max(0, a_j + u_j·c).

    fmats: (n, 4, 4); gvecs, vvecs, uvecs: (n, 4); avals: (n,). Starts from
    the zero state. Returns (states (n+1, 4), f (n,)).
    """
    n = fmats.shape[0]
    out = np.zeros((n + 1, 4))
    fs = np.empty(n)
    c = out[0]
    for j in range(n):
        f = max(0.0, avals[j] + uvecs[j] @ c)
        fs[j] = f
        c = fmats[j] @ c + gvecs[j] + f * vvecs[j]
        out[j + 1] = c
    return out, fs
