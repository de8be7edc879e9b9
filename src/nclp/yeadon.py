"""Isometries out of a tracial source: triples (J, w, B) with T(x) = w B J(x).

The source algebra carries a weighted trace tau = sum_b weight_b Tr_b and
embeds in its L_p space as x -> x.  An isometry for p != 2 decomposes into a
Jordan *-monomorphism J, a partial isometry w, and a positive B whose
spectral projections commute with the image, subject to

    (1) w* w = J(1) = s(B)
    (2) tau(x) = Tr(B^p J(x))
    (3) T(x) = w B J(x)

and the triple is unique.  With a finite trace the whole decomposition comes
from the polar data of T(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraMap,
    homomorphism_kind,
    left_mult_matrix,
    matrix_units,
    right_mult_matrix,
)
from .errors import (
    DataInvalid,
    ExponentUnsupported,
    NotAnIsometry,
    ShapeMismatch,
    TraceConditionViolated,
)
from .isometry import _norm_defect, _sample_rows, grid_witness, two_isometry_defect
from .lp import LpMap, LpVector, amplify_map, lp_norm, mazur_map, polar_decompose


def _weights(algebra, trace_weights: Sequence[float] | None) -> tuple[float, ...]:
    if trace_weights is None:
        return tuple(1.0 for _ in algebra.blocks)
    if len(trace_weights) != len(algebra.blocks):
        raise ShapeMismatch("one trace weight per source block is required")
    w = tuple(float(t) for t in trace_weights)
    if any(t <= 0 for t in w):
        raise DataInvalid("trace weights must be positive")
    return w


def weighted_lp_norm(h: LpVector, trace_weights: Sequence[float] | None) -> float:
    return lp_norm(h, weights=_weights(h.algebra, trace_weights))


@dataclass(frozen=True, eq=False)
class YeadonTriple:
    """Decomposition data of a tracial-source isometry."""

    J: AlgebraMap
    w: AlgebraElement
    B: LpVector

    def j_one(self) -> AlgebraElement:
        return self.J(AlgebraElement.identity(self.J.source))


def projection_polar_parts(T: LpMap, e: AlgebraElement) -> tuple[AlgebraElement, LpVector]:
    """Polar data (w_e, B_e) of the image of a single projection."""
    pol = polar_decompose(T(LpVector.from_element(e, T.p)))
    return pol.w, pol.modulus


def _pseudo_inverse_positive(B: LpVector) -> AlgebraElement:
    blocks = []
    top = max(
        float(np.linalg.eigvalsh((b + b.conj().T) / 2).max()) if b.size else 0.0
        for b in B.data
    )
    thr = 1e-10 * max(top, 1e-300)
    for b in B.data:
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        inv = np.where(w > thr, 1.0 / np.where(w > thr, w, 1.0), 0.0)
        blocks.append((v * inv) @ v.conj().T)
    return AlgebraElement(B.algebra, blocks)


def yeadon_decompose(
    T: LpMap, p: float, trace_weights: Sequence[float] | None = None
) -> YeadonTriple:
    """Decompose a tracial-source isometry into its triple.

    With a finite trace the polar decomposition of T(1) already carries w and
    B; J is then solved from T through the pseudo-inverse of B.  Supports of
    the images of the diagonal matrix units are cross-checked against J, and
    conditions (1) to (3) are verified before returning.
    """
    p = float(p)
    if p == 2.0:
        raise ExponentUnsupported("the decomposition is undefined at p = 2")
    weights = _weights(T.source, trace_weights)
    one = AlgebraElement.identity(T.source)
    w, B = projection_polar_parts(T, one)
    B_pinv = _pseudo_inverse_positive(B)
    solve = left_mult_matrix(B_pinv) @ left_mult_matrix(w.adjoint()) @ T.matrix
    J = AlgebraMap(T.source, T.target, solve)

    tol = 1e-7 * max(1, T.target.total_dim)
    report = homomorphism_kind(J, tol=tol)
    if report.kind == "neither" or not report.injective:
        raise NotAnIsometry(f"solved map is not a Jordan *-monomorphism ({report.kind})")

    j_one = J(one)
    sB = polar_decompose(B).s_right
    if (w.adjoint() @ w - j_one).frobenius() > tol or (j_one - sB).frobenius() > tol:
        raise NotAnIsometry("w* w = J(1) = s(B) fails")
    # spectral projections of B commute with the image exactly when B does;
    # column u of (L_B - R_B) J is the commutator [B, J(u)]
    commutators = (left_mult_matrix(B) - right_mult_matrix(B)) @ J.matrix
    comm = float(np.max(np.linalg.norm(commutators, axis=0)))
    if not comm <= tol:
        raise NotAnIsometry(f"B does not commute with the image (defect {comm:.3e})")
    # diagonal-unit supports must agree with J on projections
    for b, n in enumerate(T.source.blocks):
        for k in range(n):
            blocks = T.source.zero_blocks()
            blocks[b][k, k] = 1.0
            e = AlgebraElement(T.source, blocks)
            w_e, B_e = projection_polar_parts(T, e)
            if (w_e.adjoint() @ w_e - J(e)).frobenius() > tol:
                raise NotAnIsometry("support of a diagonal image disagrees with J")
    _verify_trace_condition(J, B, p, weights, tol)
    recon = left_mult_matrix(w @ B) @ J.matrix
    if np.max(np.abs(recon - T.matrix)) > tol:
        raise NotAnIsometry("T does not factor as w B J(x)")
    return YeadonTriple(J=J, w=w, B=B)


def _verify_trace_condition(J, B, p, weights, tol):
    """tau(u) = Tr(B^p J(u)) on every matrix unit u, as one row identity
    omega J = tau with Tr(B^p x) = omega . vec(x)."""
    Bp = mazur_map(LpVector.from_element(B, p), 1.0)
    omega = np.concatenate([b.T.reshape(-1) for b in Bp.data])
    tau = np.concatenate([w * np.eye(n).reshape(-1) for w, n in zip(weights, J.source.blocks)])
    got = omega @ J.matrix
    failing = np.flatnonzero(~(np.abs(got - tau) <= tol))
    if failing.size:
        c = failing[0]
        raise TraceConditionViolated(
            matrix_units(J.source)[c],
            f"tau and Tr(B^p J(.)) disagree on a unit: {complex(got[c])} vs {tau[c]}",
        )


def build_yeadon_map(
    triple: YeadonTriple, p: float, trace_weights: Sequence[float] | None = None
) -> LpMap:
    """Assemble x -> w B J(x) after verifying the triple's conditions."""
    p = float(p)
    J, w, B = triple.J, triple.w, triple.B
    weights = _weights(J.source, trace_weights)
    tol = 1e-7 * max(1, J.target.total_dim)
    report = homomorphism_kind(J, tol=tol)
    if report.kind == "neither" or not report.injective:
        raise DataInvalid(f"J is not a Jordan *-monomorphism ({report.kind})")
    j_one = triple.j_one()
    sB = polar_decompose(LpVector.from_element(B, p)).s_right
    if (w.adjoint() @ w - j_one).frobenius() > tol or (j_one - sB).frobenius() > tol:
        raise DataInvalid("w* w = J(1) = s(B) fails")
    _verify_trace_condition(J, LpVector.from_element(B, p), p, weights, tol)
    matrix = left_mult_matrix(w @ B) @ J.matrix
    T = LpMap(J.source, J.target, p, matrix)
    # spot check the isometry granted by the trace condition
    samples = _sample_rows(J.source, 5, np.random.default_rng(7))
    if not _norm_defect(T, samples, weights, relative=True) <= 1e-6:
        raise DataInvalid("assembled map failed an isometry spot check")
    return T


@dataclass(frozen=True)
class DichotomyReport:
    """Jordan against multiplicative behavior of a decomposed isometry."""

    kind: str
    multiplicative: bool
    isometry_defect: float
    two_isometry_defect: float
    witness_defect: float
    biconditional_holds: bool


def jordan_dichotomy_report(
    triple: YeadonTriple,
    p: float,
    trace_weights: Sequence[float] | None = None,
    *,
    tol: float = 1e-6,
) -> DichotomyReport:
    """Report the homomorphism kind of J next to the amplified norm defects.

    The amplification preserves norms exactly when J is multiplicative, so
    the report also states whether that biconditional held numerically.
    """
    weights = _weights(triple.J.source, trace_weights)
    T = build_yeadon_map(triple, p, weights)
    report = homomorphism_kind(triple.J)
    samples = _sample_rows(triple.J.source, 20, np.random.default_rng(11))
    iso = _norm_defect(T, samples, weights, relative=True)
    # block weights are unchanged by amplification
    two = two_isometry_defect(T, p, n=2, source_weights=weights)
    # norm defect at the grid witness of the first two units of each block
    big = amplify_map(T, 2)
    wide = [b for b, nb in enumerate(T.source.blocks) if nb >= 2]
    grids = [grid_witness(T.source, b, 0, 1, p, 2).vec() for b in wide]
    grids = np.array(grids, dtype=complex).reshape(len(wide), big.source.total_dim)
    witness = _norm_defect(big, grids, weights, relative=False)
    multiplicative = report.kind == "star_homomorphism"
    biconditional = multiplicative == (two < tol)
    return DichotomyReport(
        kind=report.kind,
        multiplicative=multiplicative,
        isometry_defect=iso,
        two_isometry_defect=two,
        witness_defect=witness,
        biconditional_holds=biconditional,
    )

