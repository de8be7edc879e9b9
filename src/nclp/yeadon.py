"""Isometries out of a tracial source: triples (J, w, B) with T(x) = w B J(x).

The source algebra carries a weighted trace tau = sum_b weight_b Tr_b and
embeds in its L_p space as x -> x.  An isometry for p != 2 decomposes into a
Jordan *-monomorphism J, a partial isometry w, and a positive B whose
spectral projections commute with the image, subject to

    (1) w* w = J(1) = s(B)
    (2) tau(x) = Tr(B^p J(x))
    (3) T(x) = w B J(x)

and the triple is unique.  With a finite trace, w and B come from the polar
data of T(1), and J from the right supports of the images of projections,
which is how `classify` recovers pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraMap,
    _require_finite,
    apply_left,
    apply_right,
    homomorphism_kind,
    trace_row,
)
from .errors import (
    DataInvalid,
    ExponentMismatch,
    ExponentUnsupported,
    NotAnIsometry,
    NotPositive,
    TraceConditionViolated,
)
from .isometry import (
    _grid_witness_defect,
    _modulus_power,
    _support_map,
    isometry_defect,
    two_isometry_defect,
)
from .lp import (
    LpMap,
    LpVector,
    _hermitian_spectra,
    _spectral_power,
    _spectral_support,
    _trace_weights,
    mazur_map,
    polar_decompose,
)


def _weights(algebra, trace_weights: Sequence[float] | None) -> tuple[float, ...]:
    if trace_weights is None:
        return tuple(1.0 for _ in algebra.blocks)
    return tuple(_trace_weights(len(algebra.blocks), trace_weights))


@dataclass(frozen=True, eq=False)
class YeadonTriple:
    """Decomposition data of a tracial-source isometry.  The map that
    `build_yeadon_map` assembles and verifies is kept per (p, weights); the
    fields are immutable."""

    J: AlgebraMap
    w: AlgebraElement
    B: LpVector

def projection_polar_parts(T: LpMap, e: AlgebraElement) -> tuple[AlgebraElement, LpVector]:
    """Polar data (w_e, B_e) of the image of a single projection."""
    pol = polar_decompose(T(LpVector.from_element(e, T.p)))
    return pol.w, pol.modulus


def yeadon_decompose(
    T: LpMap, p: float, trace_weights: Sequence[float] | None = None
) -> YeadonTriple:
    """Decompose a tracial-source isometry into its triple.

    With a finite trace the polar decomposition of T(1) = w B carries w, B,
    s(B) = s_r(T(1)) and B^p = V S^p V*.  J is read from right supports, as
    `extract_pi` reads pi: for a projection P, T(P) = w B J(P) with B
    commuting with J(P) and s(B) = J(1), so s_r(T(P)) = J(P).  B must
    commute with the image, conditions (1) to (3) are verified, and J must
    be a Jordan *-monomorphism before the triple is returned.
    """
    p = float(p)
    if p != T.p:
        raise ExponentMismatch(f"a decomposition at p = {p} asked of a map at p = {T.p}")
    if p == 2.0:
        raise ExponentUnsupported("the decomposition is undefined at p = 2")
    weights = _weights(T.source, trace_weights)
    pol = polar_decompose(T(LpVector.from_element(AlgebraElement.identity(T.source), p)))
    w, B = pol.w, pol.modulus
    J = _support_map(T.source, T.target, T.matrix.T)

    tol = J.target.certificate_tol
    # spectral projections of B commute with the image exactly when B does;
    # column u of (L_B - R_B) J is the commutator [B, J(u)]
    commutators = apply_left(B, J.matrix) - apply_right(B, J.matrix)
    comm = float(np.max(np.linalg.norm(commutators, axis=0)))
    if not comm <= tol:
        raise NotAnIsometry(f"B does not commute with the image (defect {comm:.3e})")
    power = partial(AlgebraElement, T.target, _modulus_power(pol))
    _verify_conditions(J, w, pol.s_right, power, weights, NotAnIsometry)
    recon = apply_left(w @ B, J.matrix)
    if np.max(np.abs(recon - T.matrix)) > tol:
        raise NotAnIsometry("T does not factor as w B J(x)")
    return YeadonTriple(J=J, w=w, B=B)


def _verify_conditions(J, w, support, power, weights, error) -> None:
    """Raise `error` unless J is an injective Jordan *-homomorphism and
    w* w = J(1) = s(B), with s(B) given as `support`, and raise
    TraceConditionViolated unless tau(u) = Tr(B^p J(u)) on every matrix unit
    u, as one row identity omega J = tau with Tr(B^p x) = omega . vec(x).
    B^p is `power()`, taken only once J and the supports have passed.  J's
    kind is taken at the target's `certificate_tol`, and so are the
    comparisons.  The unit that fails is the witness."""
    tol = J.target.certificate_tol
    report = homomorphism_kind(J, tol)
    if report.kind == "neither" or not report.injective:
        raise error(f"J is not a Jordan *-monomorphism ({report.kind})")
    j_one = J(AlgebraElement.identity(J.source))
    if (w.adjoint() @ w - j_one).frobenius() > tol or (j_one - support).frobenius() > tol:
        raise error("w* w = J(1) = s(B) fails")
    omega = trace_row(power())
    tau = np.concatenate([t * np.eye(n).reshape(-1) for t, n in zip(weights, J.source.blocks)])
    got = omega @ J.matrix
    failing = np.flatnonzero(~(np.abs(got - tau) <= tol))
    if failing.size:
        c = failing[0]
        raise TraceConditionViolated(
            AlgebraElement.from_vec(J.source, np.eye(1, J.source.total_dim, c)),
            f"tau and Tr(B^p J(.)) disagree on a unit: {complex(got[c])} vs {tau[c]}",
        )


def build_yeadon_map(
    triple: YeadonTriple, p: float, trace_weights: Sequence[float] | None = None
) -> LpMap:
    """Assemble x -> w B J(x) after verifying the triple's conditions."""
    p = float(p)
    weights = _weights(triple.J.source, trace_weights)
    return _assemble_yeadon_map(triple, p, weights)


def _assemble_yeadon_map(triple: YeadonTriple, p: float, weights) -> LpMap:
    """build_yeadon_map with the weights normalised.  The triple keeps the
    verified map per (p, weights), so a second call reads it; an assembly
    that fails keeps nothing and raises on every call."""
    kept = triple.__dict__.setdefault("_assembled", {})
    T = kept.get((p, weights))
    if T is None:
        T = kept[(p, weights)] = _verified_map(triple, p, weights)
    return T


def _verified_map(triple: YeadonTriple, p: float, weights) -> LpMap:
    """The map `_assemble_yeadon_map` keeps, assembled and verified.  B must
    be finite.  One eigendecomposition of B gives s(B) (`_spectral_support`)
    and B^p in `mazur_map`'s arithmetic, which checks B positive.  A B that
    is not Hermitian takes s(B) from its SVD, and `mazur_map` raises
    NotPositive once J and the supports have passed."""
    J, w, B = triple.J, triple.w, LpVector.from_element(triple.B, p)
    _require_finite(B.data, "B")
    try:
        spectra, floor = _hermitian_spectra(B)
    except NotPositive:
        support, power = polar_decompose(B).s_right, partial(mazur_map, B, 1.0)
    else:
        support = _spectral_support(B.algebra, spectra)
        power = partial(_spectral_power, B, spectra, floor, 1.0)
    _verify_conditions(J, w, support, power, weights, DataInvalid)
    matrix = apply_left(w @ B, J.matrix)
    T = LpMap(J.source, J.target, p, matrix)
    # spot check the isometry granted by the trace condition, on the unit
    # basis and five seeded samples
    if not isometry_defect(T, sample_count=5, seed=7, source_weights=weights) <= 1e-6:
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
    The isometry defect runs over the unit basis and 20 seeded samples, and
    the witness defect is that of id_2 (x) T at the first grid witness of
    each block of size at least 2.
    """
    weights = _weights(triple.J.source, trace_weights)
    # J keeps its defects, so the assembly and this report each take the
    # kind at their own tolerance from one computation
    report = homomorphism_kind(triple.J)
    T = _assemble_yeadon_map(triple, float(p), weights)
    iso = isometry_defect(T, sample_count=20, seed=11, source_weights=weights)
    # block weights are unchanged by amplification
    two = two_isometry_defect(T, n=2, source_weights=weights)
    witness = _grid_witness_defect(T, weights)
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

