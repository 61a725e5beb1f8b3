"""Kernels: monthly stepping, sub-monthly solves, RK4 reference, feedback control.

An affine step c <- F c + g is the linear step of the augmented matrix
[[F, g], [0, 1]] on [c; 1] (Van Loan, IEEE TAC 1978). The constant-coefficient
recurrences take k steps as one matrix power of it. The month-varying ones
build every month's map first, then take one product per month into a
preallocated float64 array, each from the row view the month before
returned. The product is the ndarray method ``.dot``: the same bits as
``np.dot`` and ``np.matmul``, without the Python-level dispatch of a numpy
function on each call. ``controlled_recurrence`` carries the
manure share ε and its unclamped input factor as the sixth and seventh state
entries; row 6 of each month's map predicts the factor for the next month.
No kernel takes a φ matrix: callers apply φ(τÃ) to a kernel's inputs.
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
    x = np.empty((fmats.shape[0] + 1, c0.shape[0] + 1))
    x[0] = xj = np.append(c0, 1.0)
    for step, xnext in zip(_augmented(fmats, gvecs), x[1:]):
        xj = step.dot(xj, out=xnext)
    return x[:, :-1]


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


def sensitivity_recurrence(fmat, dt, coup, w, bc, c0, s0, nsteps, record_every):
    """Co-integrate state and sensitivity with frozen left-endpoint coupling.

    Per step of length dt (state c, sensitivity s):
        s <- F s + dt (coup @ c + w)
        c <- F c + dt bc
    which is one constant affine step of [s; c] with the block matrix
    [[F, dt coup], [0, F]] and forcing dt [w; bc], coup, w and bc carrying
    φ(τÃ). Samples every ``record_every`` steps. Returns (c_samples,
    s_samples).

    ``nsteps`` and ``record_every`` stay at positions 7 and 8: perfbench's
    span tracer reads the step count as the eighth positional argument.
    """
    block = np.block([[fmat, dt * coup], [np.zeros((4, 4)), fmat]])
    forcing = dt * np.concatenate((w, bc))
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


def controlled_recurrence(clamped, free, x0):
    """Clamped affine loop on x = [c; 1; ε; f̂′], one of two maps per month.

    clamped, free: (n, 7, 7) month maps; x0: (7,). Month j steps x_j by
    ``free[j]`` if its unclamped input factor x_j[6] is positive, else by
    ``clamped[j]``. Returns all states x (n+1, 7), x0 first.

    The maps are ``Site.control_maps``: their c rows apply the month's
    manure-free step, plus the manure input f̂′ v̂ in the free map; row 6 of
    both predicts the next month's f̂′.
    """
    x = np.empty((clamped.shape[0] + 1, x0.shape[0]))
    x[0] = xj = x0
    for month_clamped, month_free, xnext in zip(clamped, free, x[1:]):
        xj = (month_free if xj[6] > 0.0 else month_clamped).dot(xj, out=xnext)
    return x
