"""Building canonical 2-isometries from (pi, E, w) data and classifying maps
back into that data; rejection of norm-preserving maps that fail amplified
norms.

Run:  python3 demos/05_two_isometries_and_classification.py
"""

import numpy as np

from nclp import (
    State,
    build_isometry,
    classify,
    isometry_defect,
    make_algebra,
    two_isometry_defect,
)
from nclp.algebra import transpose_permutation
from nclp.lp import LpMap
from nclp.samples import random_isometry_data

# A seeded instance: an embedding with multiplicities and corners, the
# invariant state on the image, and a partial isometry in front.
data = random_isometry_data(seed=1)
print("source blocks:", data.source.blocks, "-> target blocks:", data.target.blocks)

p = 3.0
T = build_isometry(data, p)
print("isometry defect:       ", isometry_defect(T))
print("2-amplified defect:    ", two_isometry_defect(T, n=2, relative=True))
print("3-amplified defect:    ", two_isometry_defect(T, n=3, relative=True))

# Classification recovers the data under the support normalization.
report = classify(T, data.reference_state, p)
print("verdict:", report.verdict)
print("recovered embedding distance:",
      np.max(np.abs(report.data.pi.matrix - data.pi.matrix)))
print("recovered partial isometry distance:",
      (report.data.w - data.w).frobenius())

# The transpose preserves every L_p norm but fails once amplified, and the
# pipeline rejects it at the multiplicativity certificate.
m2 = make_algebra([2])
trace_state = State(m2, [np.eye(2) / 2])
transpose = LpMap(m2, m2, p, transpose_permutation(m2))
rejection = classify(transpose, trace_state, p)
print("transpose verdict:", rejection.verdict, "at stage:", rejection.failing_stage)
print("  base defect:", rejection.defects["isometry"],
      " amplified defect:", round(rejection.defects["two_isometry"], 6))
