"""Running the named verification suites and reading their JSON reports.

Run:  python3 demos/07_verification_suites.py
"""

from nclp.suites import SUITES, SuiteConfig, run_suite

# Every suite certifies one property over seeded instances; its row in
# SUITES holds that property, its defaults and the exponents it accepts.
# Reports are deterministic for a fixed configuration, timing aside.
quick = {
    "clarkson": 120,
    "yeadon_roundtrip": 6,
    "dichotomy": 4,
    "classify_roundtrip": 6,
    "state_restriction": 5,
    "interpolation": 200,
    "duality": 5,
    "extrapolation": 4,
    "lemma41": 60,
    "expectation_detect": 6,
}

for name, samples in quick.items():
    report = run_suite(SuiteConfig(suite=name, seed=1, sample_count=samples))
    print(f"{name:22s} pass={report.passed} cases={len(report.cases):3d} "
          f"wall={report.wall_time_s:.2f}s")
    row = SUITES[name]
    print(f"    certifies: {row.property}")
    if row.exponents is not None:
        print(f"    exponents: {list(row.exponents)} by default, {row.domain} accepted")

# One full report, as the CLI would write it:
report = run_suite(SuiteConfig(suite="dichotomy", seed=1, sample_count=2))
print()
print(report.dumps())
