"""Kernels: monthly stepping, sub-monthly solves, RK4 reference, feedback control.

An affine step c <- F c + g is the linear step of the augmented matrix
[[F, g], [0, 1]] on [c; 1] (Van Loan, IEEE TAC 1978). The constant-coefficient
recurrences take k steps as one matrix power of it. The month-varying ones
build every month's map first. ``affine_recurrence`` and ``rk4_piecewise``
chain them in blocks of about √(n/3) months, summing in another order than
a step-by-step loop; ``controlled_recurrence``, whose clamp reads each
month's state, takes one ``.dot`` per month (the ndarray method skips
``np.dot``'s Python-level dispatch) on month-map views that every run of a
site shares. It carries the manure share ε and its input factor as the
sixth and seventh state entries, clamping the factor at 0 before each
month's step; row 6 of each month's map predicts the next one.
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
    return _chained(_augmented(fmats, gvecs), np.append(c0, 1.0))[:, :-1]


def _chained(steps, x0):
    """All states of x_{j+1} = steps[j] x_j, x0 first: (n+1, m), in about
    4√(n/3) numpy calls: the prefix products within blocks of round(√(n/3))
    maps (the last padded with identities), for all blocks at once; then the
    block starts; then each state from its prefix and block start. ``steps``
    may be overwritten."""
    n, m = steps.shape[0], x0.shape[0]
    size = max(1, round((n / 3) ** 0.5))
    nblocks = -(-n // size)
    if nblocks * size > n:
        pad = np.broadcast_to(np.eye(m), (nblocks * size - n, m, m))
        steps = np.concatenate((steps, pad))
    prefix = steps.reshape(nblocks, size, m, m)
    for i in range(1, size):
        prefix[:, i] = prefix[:, i] @ prefix[:, i - 1]
    starts = np.empty((nblocks + 1, m))
    starts[0] = xj = x0
    for block, xnext in zip(prefix[:, -1], starts[1:]):
        xj = block.dot(xj, out=xnext)
    x = np.empty((nblocks * size + 1, m))
    x[0] = x0
    np.matmul(prefix.reshape(nblocks, size * m, m), starts[:-1, :, None],
              out=x[1:].reshape(nblocks, size * m, 1))
    return x[:n + 1]


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
    return _chained(month, np.append(c0, 1.0))[:, :-1]


def controlled_recurrence(maps, x0):
    """Clamped affine loop on x = [c; 1; ε; f̂′], one map per month.

    maps: ``Site.control_maps``' object array of n (7, 7) views (an
    (n, 7, 7) array steps the same, making a view per month: 6–9 % of
    the loop); x0: (7,), not written. Month j sets the factor x_j[6] to +0.0
    unless it is positive, then steps x_j by ``maps[j]``, whose c rows take
    the manure input f̂′ v̂ and whose row 6 predicts the next f̂′. Returns
    all states x (n+1, 7). perfbench's tracer reads n as ``maps.shape[0]``.
    """
    x = np.empty((maps.shape[0] + 1, x0.shape[0]))
    x[0] = x0
    xj = x[0]
    for month_map, xnext in zip(maps, x[1:]):
        if not xj[6] > 0.0:
            xj[6] = 0.0
        xj = month_map.dot(xj, out=xnext)
    return x
