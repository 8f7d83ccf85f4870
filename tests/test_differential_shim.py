"""Pin the differential harness's re-export shim to the package module.

The seeded workload generator lives in :mod:`repro.workloads.differential`
(the io-bench experiment draws from the same population);
``tests/differential.py`` re-exports it so the differential suites keep one
import path.  This pin catches the shim and the package drifting apart —
in-repo code should import the package module directly, the shim exists for
the harness's own suites.
"""

import differential

import repro.workloads.differential as workloads_differential


def test_shim_reexports_the_package_generator() -> None:
    assert differential.generate_workload is workloads_differential.generate_workload
    assert (
        differential.DifferentialWorkload
        is workloads_differential.DifferentialWorkload
    )
