"""Modular flow, cocycles between states, density transport, and the
self-polar form.  Everything is exact spectral calculus in finite dimensions.
"""

from __future__ import annotations

from .algebra import AlgebraElement, State
from .errors import NonFaithful, ShapeMismatch, SupportViolation


def modular_automorphism(phi: State, t: float, x: AlgebraElement) -> AlgebraElement:
    """The flow x -> rho^{it} x rho^{-it} at time t."""
    if not phi.faithful:
        raise NonFaithful("modular flow needs a faithful state")
    if x.algebra != phi.algebra:
        raise ShapeMismatch("element lives on a different algebra")
    u = phi.complex_power(1j * t)
    return u @ x @ u.adjoint()


def connes_cocycle(psi: State, phi: State, z: complex) -> AlgebraElement:
    """The cocycle rho_psi^{iz} rho_phi^{-iz} comparing two states.

    For real z this is the unitary cocycle on the support of phi; at complex
    z the spectral continuation is taken, with pseudo-inverse powers on the
    supports.  A non-faithful phi is accepted only as a restricted model in
    which the support of psi sits under the support of phi.
    """
    if psi.algebra != phi.algebra:
        raise ShapeMismatch("states live on different algebras")
    z = complex(z)
    if not phi.faithful:
        s_phi = phi.support()
        s_psi = psi.support()
        dominated = (s_phi @ s_psi - s_psi).frobenius() <= 100 * phi.algebra.atol
        if not dominated:
            if z.imag != 0.0:
                raise SupportViolation("support of psi is not dominated by support of phi")
            raise NonFaithful("cocycle at real time needs phi faithful on the support of psi")
    left = psi.complex_power(1j * z)
    right = phi.complex_power(-1j * z)
    return left @ right


def density_transport(phi: State, psi: State, p: float) -> AlgebraElement:
    """The element d with phi^{1/p} d = psi^{1/p}, namely
    rho_phi^{-1/p} rho_psi^{1/p}."""
    if not phi.faithful:
        raise NonFaithful("density transport needs a faithful reference state")
    if psi.algebra != phi.algebra:
        raise ShapeMismatch("states live on different algebras")
    d = phi.complex_power(-1.0 / p) @ psi.complex_power(1.0 / p)
    # postcondition: left multiplication by phi^{1/p} recovers psi^{1/p}
    gap = phi.power_element(1.0 / p) @ d - psi.power_element(1.0 / p)
    if gap.frobenius() > 1000 * phi.algebra.atol:
        raise NonFaithful("transport postcondition failed; phi is numerically singular")
    return d


def selfpolar_form(phi: State, x: AlgebraElement, y: AlgebraElement) -> complex:
    """The sesquilinear form Tr(rho^{1/2} x rho^{1/2} y*)."""
    if x.algebra != phi.algebra or y.algebra != phi.algebra:
        raise ShapeMismatch("elements live on a different algebra")
    r = phi.power_element(0.5)
    return (r @ x @ r @ y.adjoint()).trace()
