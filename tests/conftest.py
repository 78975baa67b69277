"""Shared reference oracles for the test suite.

These deliberately avoid the production code paths: joint-space matrix
exponentials for the transit, a vectorized Liouvillian exponential for the
damped variant, and direct quadrature re-derivations.  Production formulas
are always checked against one of these, never against themselves.
"""

import math

import numpy as np
from scipy import linalg
from scipy.special import gammaln


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    if abs(alpha) == 0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    mag = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1))
    return mag * np.exp(1j * n * np.angle(alpha))


def branch_estimates(result) -> tuple:
    """(excited-branch, ground-branch) estimates of one ``MmseResult``.

    Branches are identified by eigenvector overlap with |e> and |g>;
    meaningful for the diagonal (resonant, vacuum) case where the estimator
    commutes with the bare qubit basis.
    """
    if abs(result.projectors[0, 0]) ** 2 >= 0.5:
        return result.estimates[0], result.estimates[1]
    return result.estimates[1], result.estimates[0]


def schrodinger_reduced_state(
    g: float, tau_c: float, delta: float, field_coeffs, gamma_tau_f: float = 0.0
) -> np.ndarray:
    """Reduced 2x2 state by expm of the joint Hamiltonian, then partial trace.

    The joint photon space extends one level above the field truncation so
    the topmost excitation sector evolves exactly.
    """
    coeffs = np.asarray(field_coeffs, dtype=complex)
    n_field = len(coeffs)  # photon levels 0 .. n_field (one above the input)
    dim = 2 * (n_field + 1)

    def idx(q, n):  # q = 0 excited, 1 ground
        return q * (n_field + 1) + n

    ham = np.zeros((dim, dim), dtype=complex)
    for n in range(n_field + 1):
        ham[idx(0, n), idx(0, n)] = delta / 2
        ham[idx(1, n), idx(1, n)] = -delta / 2
    for n in range(n_field):
        coup = g * np.sqrt(n + 1)
        ham[idx(0, n), idx(1, n + 1)] = coup
        ham[idx(1, n + 1), idx(0, n)] = coup

    psi0 = np.zeros(dim, dtype=complex)
    psi0[: len(coeffs)] = coeffs
    psi = linalg.expm(-1j * ham * tau_c) @ psi0
    ce, cg = psi[: n_field + 1], psi[n_field + 1 :]

    a_ee = float(np.vdot(ce, ce).real)
    a_eg = complex(np.sum(ce * np.conj(cg)))
    damp = np.exp(-gamma_tau_f)
    return np.array(
        [
            [a_ee * damp, a_eg * np.sqrt(damp)],
            [np.conj(a_eg) * np.sqrt(damp), 1.0 - a_ee * damp],
        ]
    )


def master_equation_excited_population(
    g: float, t: float, gamma: float, kappa: float, n_fock: int = 3
) -> float:
    """Excited population from expm of the vectorized Liouvillian.

    Initial state |e, 0>; with no drive the single excitation cannot climb
    the ladder, so a small photon space is exact.
    """
    levels = n_fock + 1
    dim = 2 * levels

    def idx(q, n):
        return q * levels + n

    ham = np.zeros((dim, dim), dtype=complex)
    for n in range(n_fock):
        coup = g * np.sqrt(n + 1)
        ham[idx(0, n), idx(1, n + 1)] = coup
        ham[idx(1, n + 1), idx(0, n)] = coup

    a_op = np.zeros((dim, dim), dtype=complex)
    for q in range(2):
        for n in range(1, levels):
            a_op[idx(q, n - 1), idx(q, n)] = np.sqrt(n)
    s_minus = np.zeros((dim, dim), dtype=complex)
    for n in range(levels):
        s_minus[idx(1, n), idx(0, n)] = 1.0

    eye = np.eye(dim)

    def dissipator(op):
        opd_op = op.conj().T @ op
        return (
            np.kron(op, op.conj())
            - 0.5 * np.kron(opd_op, eye)
            - 0.5 * np.kron(eye, opd_op.T)
        )

    liouville = (
        -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
        + kappa * dissipator(a_op)
        + gamma * dissipator(s_minus)
    )
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[idx(0, 0), idx(0, 0)] = 1.0
    rho_t = (linalg.expm(liouville * t) @ rho0.reshape(-1)).reshape(dim, dim)
    return float(sum(rho_t[idx(0, n), idx(0, n)].real for n in range(levels)))


def matrix_exp_product_integral(g0_arr: np.ndarray, g1_arr: np.ndarray) -> np.ndarray:
    """2 int_0^inf exp(-G0 x) G1 exp(-G0 x) dx by panel quadrature.

    Truncated at 50 / lambda_min where the integrand has decayed below
    e^-100.  Panel edges are clustered cubically toward the origin so the
    fast eigendirections are resolved even when the eigenvalue spread is
    large; composite Gauss-Legendre with expm keeps the oracle independent
    of the eigenbasis solve it cross-checks.
    """
    w = np.linalg.eigvalsh(g0_arr)
    upper = 50.0 / float(w.min())
    xs, ws = np.polynomial.legendre.leggauss(40)
    total = np.zeros_like(g1_arr, dtype=complex)
    edges = upper * np.linspace(0.0, 1.0, 240) ** 3
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = (hi - lo) / 2, (hi + lo) / 2
        for x, wt in zip(xs, ws):
            point = mid + half * x
            e = linalg.expm(-g0_arr * point)
            total += wt * half * (e @ g1_arr @ e)
    return 2.0 * total


def odd_factorial_series(x, coef, k0: int):
    """sum_{k>=k0} coef(k) x^(2k) / (2k+1)! over sixteen terms: the loop the
    sinc series ran before it took one fixed coefficient matrix, kept to pin
    the bits of that matrix's sum."""
    x2 = x * x
    power = x2**k0 / math.factorial(2 * k0 + 1)
    total = 0.0
    for k in range(k0, k0 + 16):
        total = total + coef(k) * power
        power = power * x2 / ((2 * k + 2) * (2 * k + 3))
    return total


def matmul_solve(gamma0, gamma1, pair_floor=1e-14):
    """G0 M + M G0 = 2 G1 by the eigenbasis products M = V M' V†, with
    M'_ij = 2 (V† G1 V)_ij / (l_i + l_j): the stacked-matmul solve the
    Bloch form replaced, kept as a second oracle for its accuracy."""
    from cavbayes.errors import DegenerateGamma0
    from cavbayes.qubit import Hermitian2, eigendecompose

    w, v = eigendecompose(gamma0)
    pair = w[..., :, None] + w[..., None, :]
    if np.any(pair <= pair_floor):
        raise DegenerateGamma0(f"eigenvalue pair sums {pair.min()} <= {pair_floor}")
    vh = v.swapaxes(-1, -2).conj()
    keep = pair > 0.0
    mt = np.where(keep, 2.0 * (vh @ gamma1.as_array() @ v), 0.0)
    safe = np.where(keep, pair, 1.0)
    mt.real /= safe
    mt.imag /= safe
    m = v @ mt @ vh
    eg = 0.5 * (m[..., 0, 1] + np.conj(m[..., 1, 0]))
    return Hermitian2(ee=m[..., 0, 0].real[()], gg=m[..., 1, 1].real[()], eg=eg[()])
