#!/usr/bin/env python3
"""Run the bound-verification harness over every labeled tree up to n=7:
the solver is compared with brute force, and each theorem's bounds are
checked tree by tree. Violations would be reported as data; a clean run
prints only the counters."""

import os

from linforest import SweepConfig, verify_theorems

run = verify_theorems(7, processes=os.cpu_count() or 1)
for line in run.summary_lines():
    print(line)

if run.ok:
    print("\nno violations: every bound held on every tree")
else:
    print(f"\n{len(run.violations)} violations:")
    for report in run.violations[:20]:
        print(" ", report.to_text())

# prove the harness is alive: tighten every upper bound by one and watch
# the saturating trees turn into violations
mutated = verify_theorems(5, SweepConfig(upper_slack=1))
print(f"\nself-test with tightened bounds: {len(mutated.violations)} violations (expected > 0)")
