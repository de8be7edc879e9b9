"""Canonical 2-isometries between L_p spaces and their classification.

A canonical map is assembled from a triple: an injective *-homomorphism pi
into the target algebra, a state-preserving conditional expectation E onto
its image, and a partial isometry w whose initial projection is pi(1).  With
a faithful reference state phi on the source, the map sends phi^{1/p} x to
w phibar^{1/p} pi(x) where phibar extends phi through pi and E.

Classification runs the reverse direction: right supports of the images of
spectral projections recover pi, polar data recovers w and phibar, modular
invariance recovers E, and a rebuild closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraMap,
    State,
    cluster_projection,
    hermitian_basis,
    homomorphism_kind,
    left_mult_matrix,
    matrix_units,
    spectral_clusters,
)
from .errors import (
    DataInvalid,
    ExponentMismatch,
    ExponentUnsupported,
    NonFaithful,
    NotAnIsometry,
    NotInvariant,
    ZeroImage,
)
from .expectation import (
    ConditionalExpectation,
    Subalgebra,
    construct_expectation,
)
from .lp import (
    LpMap,
    LpVector,
    _amplified_positions,
    amplified_algebra,
    amplify_map,
    conjugate_exponent,
    lp_norms,
    mazur_map,
    polar_decompose,
    state_power,
)

METRIC_TOL = 1e-7  # accept threshold for sampled metric defects
WARN_TOL = 1e-4  # defects between these two are reported as a warn band
INJECTIVITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class IsometryData:
    """The classification data of a canonical 2-isometry."""

    source: Algebra
    target: Algebra
    pi: AlgebraMap
    w: AlgebraElement
    expectation: ConditionalExpectation
    reference_state: State

    @property
    def phibar(self) -> State:
        return self.expectation.state

    def validate(self, tol: float = 1e-6) -> None:
        if self.pi.source != self.source or self.pi.target != self.target:
            raise DataInvalid("homomorphism does not match the declared algebras")
        if not self.reference_state.faithful:
            raise NonFaithful("reference state must be faithful")
        report = homomorphism_kind(self.pi)
        if report.kind != "star_homomorphism" or not report.injective:
            raise DataInvalid(f"pi is not an injective *-homomorphism ({report.kind})")
        pi_one = self.pi(AlgebraElement.identity(self.source))
        if (self.w.adjoint() @ self.w - pi_one).frobenius() > tol:
            raise DataInvalid("w* w differs from pi(1)")
        # the preserved state must restrict through pi to the reference state
        defect = verify_state_restriction(self.phibar, self.pi, self.reference_state)
        if defect > tol:
            raise DataInvalid(f"state restriction defect {defect:.3e}")


def build_isometry(data: IsometryData, p: float) -> LpMap:
    """Assemble the canonical map phi^{1/p} x -> w phibar^{1/p} pi(x).

    The matrix is the composition of left multiplication by w phibar^{1/p},
    the homomorphism, and the inverse of left multiplication by phi^{1/p}.
    The module property T(h x) = T(h) pi(x) holds by construction.
    """
    p = float(p)
    if not (1.0 <= p < np.inf):
        raise ExponentUnsupported(f"p must lie in [1, inf), got {p}")
    data.validate()
    phi = data.reference_state
    rho_pow_inv = phi.power_element(-1.0 / p)
    out_factor = data.w @ data.phibar.power_element(1.0 / p)
    matrix = left_mult_matrix(out_factor) @ data.pi.matrix @ left_mult_matrix(rho_pow_inv)
    return LpMap(data.source, data.target, p, matrix)


def transfer_exponent(
    pi: AlgebraMap, phi: State, phibar: State, w: AlgebraElement, q: float
) -> LpMap:
    """The companion map at exponent q, phi^{1/q} x -> w phibar^{1/q} pi(x)."""
    q = float(q)
    if not (1.0 <= q < np.inf):
        raise ExponentUnsupported(f"q must lie in [1, inf), got {q}")
    if not phi.faithful:
        raise NonFaithful("reference state must be faithful")
    out_factor = w @ phibar.power_element(1.0 / q)
    matrix = left_mult_matrix(out_factor) @ pi.matrix @ left_mult_matrix(phi.power_element(-1.0 / q))
    return LpMap(pi.source, pi.target, q, matrix)


# -- extraction ----------------------------------------------------------------


def extract_pi(T: LpMap, phi: State, p: float) -> AlgebraMap:
    """Recover the underlying homomorphism from right supports.

    Each spectral projection e of each Hermitian basis element is sent to the
    right support of T(phi^{1/p} e); the map extends first real-linearly over
    spectral decompositions, then complex-linearly.  The module relation
    T(phi^{1/p} x) = T(phi^{1/p}) pi(x) is verified on the basis afterwards.
    """
    p = float(p)
    if p == 2.0:
        raise ExponentUnsupported("extraction is undefined at p = 2")
    if not phi.faithful:
        raise NonFaithful("extraction needs a faithful reference state")
    src, tgt = T.source, T.target
    if phi.algebra != src:
        raise DataInvalid("state lives on a different algebra than the map source")
    rho_pow = phi.power_element(1.0 / p)

    def image_of_projection(e: AlgebraElement) -> AlgebraElement:
        h = T(LpVector.from_element(rho_pow @ e, p))
        return polar_decompose(h).s_right

    herm_images = []
    for x in hermitian_basis(src):
        img = AlgebraElement.zero(tgt)
        for cluster in spectral_clusters(x.data, lambda top: 1e-8 * max(1.0, top)):
            val = float(np.mean([t[0] for t in cluster]))
            if abs(val) < 1e-12:
                continue
            img = img + val * image_of_projection(cluster_projection(src, cluster))
        herm_images.append(img)

    # hermitian basis order per block: diagonals first, then (sym, asym) pairs
    images = iter(herm_images)
    matrix = np.zeros((tgt.total_dim, src.total_dim), dtype=complex)
    for off, n in zip(src.offsets(), src.blocks):
        for i in range(n):
            matrix[:, off + i * n + i] = next(images).vec()
        for i in range(n):
            for j in range(i + 1, n):
                sym, asym = next(images), next(images)
                matrix[:, off + i * n + j] = ((sym - 1j * asym) * 0.5).vec()
                matrix[:, off + j * n + i] = ((sym + 1j * asym) * 0.5).vec()
    pi = AlgebraMap(src, tgt, matrix)

    # the module relation T L_{rho^{1/p}} = L_{T(rho^{1/p})} pi, one column per unit
    base_image = AlgebraElement.from_vec(tgt, T.matrix @ rho_pow.vec())
    residual = T.matrix @ left_mult_matrix(rho_pow) - left_mult_matrix(base_image) @ pi.matrix
    defect = float(np.max(np.linalg.norm(residual, axis=0)))
    if not defect <= WARN_TOL:
        raise NotAnIsometry(f"module relation fails on the basis (defect {defect:.3e})")
    return pi


def extract_polar_data(T: LpMap, phi: State, p: float):
    """Polar data of the image of the reference vector: the partial isometry
    and the state carried by the modulus' p-th power."""
    h = T(state_power(phi, 1.0 / p))
    if h.frobenius() < 1e-12:
        raise ZeroImage("the image of the reference vector vanished")
    pol = polar_decompose(h)
    density = mazur_map(pol.modulus, 1.0)
    phibar = State(T.target, list(density.data), normalize=True)
    return pol.w, phibar


def verify_state_restriction(phibar: State, pi: AlgebraMap, phi: State) -> float:
    """Largest deviation of phibar(pi(x)) from phi(x) over the unit basis."""
    defect = 0.0
    for u in matrix_units(pi.source):
        defect = max(defect, abs(phibar(pi(u)) - phi(u)))
    return float(defect)


# -- metric defects --------------------------------------------------------------


def _sample_rows(algebra: Algebra, count: int, rng) -> np.ndarray:
    """count seeded Gaussian vectors as rows.  One draw in C order is the
    same stream as drawing per sample and block, real part then imaginary
    part."""
    draws = rng.standard_normal((count, 2 * algebra.total_dim))
    parts = []
    for off, n in zip(algebra.offsets(), algebra.blocks):
        pair = draws[:, 2 * off : 2 * (off + n * n)].reshape(count, 2, n * n)
        parts.append(pair[:, 0] + 1j * pair[:, 1])
    return np.hstack(parts)


def _norm_defect(T: LpMap, rows: np.ndarray, weights, relative: bool) -> float:
    """Largest |  ||T h||_p - ||h||_p  | over the rows h, divided by ||h||_p
    when relative; rows of norm below 1e-14 are skipped and a NaN gives NaN.
    The map is applied as one matvec per row, which is bitwise T(h); the
    GEMM form rows @ T.matrix.T is not."""
    norms = lp_norms(T.source, T.p, rows, weights)
    images = lp_norms(T.target, T.p, np.matmul(T.matrix, rows[:, :, None])[:, :, 0])
    keep = ~(norms < 1e-14)
    d = np.abs(images[keep] - norms[keep])
    if relative:
        d = d / norms[keep]
    return float(np.max(d, initial=0.0))


def isometry_defect(
    T: LpMap,
    p: float,
    *,
    sample_count: int = 60,
    seed: int = 0,
    source_weights: Sequence[float] | None = None,
    relative: bool = True,
) -> float:
    """Largest deviation |  ||T h||_p - ||h||_p  | over the unit basis and a
    seeded sample of vectors."""
    if float(p) != T.p:
        raise ExponentMismatch(f"a defect at p = {p} asked of a map at p = {T.p}")
    rng = np.random.default_rng(seed)
    rows = np.vstack([np.eye(T.source.total_dim), _sample_rows(T.source, sample_count, rng)])
    return _norm_defect(T, rows, source_weights, relative)


def _amplified_indicator(algebra: Algebra, n: int, p: float, positions) -> LpVector:
    """The vector of the n-fold amplification with ones at the given positions."""
    big = amplified_algebra(algebra, n)
    vec = np.zeros(big.total_dim, dtype=complex)
    vec[positions] = 1.0
    return LpVector.from_element(AlgebraElement.from_vec(big, vec), p)


def _grid_positions(algebra: Algebra, b: int, k: int, l: int, n: int) -> list:
    off, nb = algebra.offsets()[b], algebra.blocks[b]
    return [
        _amplified_positions(algebra, n, a, c)[off + qa * nb + qc]
        for a, qa in enumerate((k, l))
        for c, qc in enumerate((k, l))
    ]


def _witness_positions(algebra: Algebra, n: int) -> list:
    """Positions of the ones of each structured witness in the n-fold
    amplification: the grid witnesses of every block, then row and column
    witnesses."""
    out = [
        _grid_positions(algebra, b, k, l, n)
        for b, nb in enumerate(algebra.blocks)
        for k in range(nb)
        for l in range(k + 1, nb)
    ]
    # row and column witnesses e_11 (x) u_i + e_12 (x) u_j and
    # e_11 (x) u_i + e_21 (x) u_j across blocks, for abelian parts
    first, row, col = (_amplified_positions(algebra, n, *ac) for ac in ((0, 0), (0, 1), (1, 0)))
    cap = min(algebra.total_dim, 12)
    for i in range(cap):
        for j in range(i + 1, cap):
            out += [[first[i], row[j]], [first[i], col[j]]]
    return out


def grid_witness(algebra: Algebra, b: int, k: int, l: int, p: float, n: int = 2) -> LpVector:
    """The grid witness Sigma_{a,c} e_ac (x) u_{q_a q_c}, q = (k, l), of block
    b in the n-fold amplification; a transpose on the block changes its L_p
    norm for p != 2, so it detects maps that are Jordan but not
    multiplicative."""
    return _amplified_indicator(algebra, n, p, _grid_positions(algebra, b, k, l, n))


def structured_witnesses(algebra: Algebra, p: float, n: int = 2) -> list[LpVector]:
    """Matrix-unit grid witnesses Sigma e_ij (x) u_ij in the n-fold
    amplification; these detect maps that preserve norms but not the
    multiplicative structure."""
    return [_amplified_indicator(algebra, n, p, pos) for pos in _witness_positions(algebra, n)]


def two_isometry_defect(
    T: LpMap,
    p: float,
    *,
    n: int = 2,
    sample_count: int = 60,
    seed: int = 0,
    source_weights: Sequence[float] | None = None,
    relative: bool = False,
) -> float:
    """Largest norm defect of the n-fold amplification over the structured
    matrix-unit witnesses and a seeded sample."""
    if float(p) != T.p:
        raise ExponentMismatch(f"a defect at p = {p} asked of a map at p = {T.p}")
    big = amplify_map(T, n)
    rng = np.random.default_rng(seed)
    positions = _witness_positions(T.source, n)
    witnesses = np.zeros((len(positions), big.source.total_dim), dtype=complex)
    for r, pos in enumerate(positions):
        witnesses[r, pos] = 1.0
    rows = np.vstack([witnesses, _sample_rows(big.source, sample_count, rng)])
    return _norm_defect(big, rows, source_weights, relative)


# -- star adjoint duals -----------------------------------------------------------


def star_adjoint_dual(T: LpMap, p: float) -> LpMap:
    """The star adjoint of the trace dual, k -> T'(k*)*, as a map at the
    conjugate exponent.  In the fixed vectorization this is the Hermitian
    adjoint of the matrix."""
    p = float(p)
    if p <= 1.0:
        raise ExponentUnsupported("the dual at p = 1 lands in the algebra, not in an L_p space")
    return LpMap(T.target, T.source, conjugate_exponent(p), T.matrix.conj().T)


# -- classification ---------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Result of the classification pipeline with its named defects."""

    verdict: str  # accept | reject
    defects: dict
    data: IsometryData | None = None
    failing_stage: str | None = None
    warnings: list = dataclass_field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


def classify(
    T: LpMap,
    phi: State,
    p: float,
    *,
    metric_tol: float = METRIC_TOL,
    warn_tol: float = WARN_TOL,
    seed: int = 0,
) -> ClassificationReport:
    """Decide whether a map is a canonical 2-isometry and recover its data.

    Pipeline: sampled isometry and amplified-isometry defects; homomorphism
    extraction and certification; polar data; state restriction; modular
    invariance and the expectation on the image; rebuild and compare.
    The verdict is accept exactly when every defect clears its threshold.
    The matrix of T is read at the exponent p, whatever T.p is.
    """
    p = float(p)
    if p == 2.0:
        raise ExponentUnsupported("classification is undefined at p = 2")
    if not phi.faithful:
        raise NonFaithful("classification needs a faithful reference state")
    T = T.at_exponent(p)
    defects: dict = {}
    warnings: list = []

    def reject(stage: str) -> ClassificationReport:
        return ClassificationReport(
            verdict="reject", defects=defects, data=None, failing_stage=stage, warnings=warnings
        )

    # stage 1: metric defects; only a failed base isometry rejects here, a
    # bad amplified defect is diagnosed by the multiplicativity certificate
    defects["isometry"] = isometry_defect(T, p, seed=seed)
    defects["two_isometry"] = two_isometry_defect(T, p, n=2, seed=seed, relative=True)
    algebraic_tol = max(T.source.atol, T.target.atol) * 10
    if not defects["isometry"] <= metric_tol:
        if defects["isometry"] < warn_tol:
            warnings.append(f"isometry defect {defects['isometry']:.3e} in the warn band")
        return reject("isometry")

    # stage 2: homomorphism extraction and certification
    try:
        pi = extract_pi(T, phi, p)
    except NotAnIsometry:
        defects["multiplicativity"] = float("inf")
        return reject("multiplicativity")
    report = homomorphism_kind(pi)
    defects["multiplicativity"] = report.mult_defect
    if report.kind != "star_homomorphism" or not report.injective:
        return reject("multiplicativity")

    # stage 3: polar data
    try:
        w, phibar = extract_polar_data(T, phi, p)
    except ZeroImage:
        return reject("polar")

    # stage 4: state restriction
    defects["state_restriction"] = verify_state_restriction(phibar, pi, phi)
    if not defects["state_restriction"] <= algebraic_tol:
        return reject("state_restriction")

    # stage 5: invariance of the image and the expectation
    image = Subalgebra.from_map_image(pi)
    try:
        E = construct_expectation(image, phibar)
    except NotInvariant as exc:
        defects["invariance"] = exc.defect
        return reject("expectation")
    except NonFaithful:
        return reject("expectation")
    defects["invariance"] = E.invariance_defect

    # stage 6: rebuild and compare on the reference basis
    data = IsometryData(
        source=T.source,
        target=T.target,
        pi=pi,
        w=w,
        expectation=E,
        reference_state=phi,
    )
    try:
        rebuilt = build_isometry(data, p)
    except DataInvalid:
        return reject("reconstruction")
    # row u is rho^{1/p} u; each map is applied as one matvec per row
    rows = left_mult_matrix(phi.power_element(1.0 / p)).T
    gaps = np.matmul(T.matrix, rows[:, :, None]) - np.matmul(rebuilt.matrix, rows[:, :, None])
    scales = np.maximum(lp_norms(T.source, p, rows), 1e-14)
    recon = float(np.max(lp_norms(T.target, p, gaps[:, :, 0]) / scales))
    defects["reconstruction"] = recon
    if not recon <= metric_tol:
        if recon < warn_tol:
            warnings.append(f"reconstruction defect {recon:.3e} in the warn band")
        return reject("reconstruction")

    if not defects["two_isometry"] <= metric_tol:
        if defects["two_isometry"] < warn_tol:
            warnings.append(
                f"two_isometry defect {defects['two_isometry']:.3e} in the warn band"
            )
        return reject("two_isometry")

    return ClassificationReport(
        verdict="accept", defects=defects, data=data, failing_stage=None, warnings=warnings
    )
