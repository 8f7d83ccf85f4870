"""Source-rate adaptivity acceptance benchmark.

Runs the ``rate-bench`` matrix (slow / bursty / flaky remote-source
deliveries, static vs ``rate_adaptive=True`` corrective processing on the
batched engine) and asserts the PR's acceptance criteria:

* every rate-adaptive run's result multiset is identical to its static twin
  (rate adaptivity never changes answers);
* on the slow and bursty workloads the source-rate policy fires (collapse
  detected, plan switched to gate work behind the stalled source) and wins
  by at least 1.3x simulated time;
* on the flaky workload — where the outage only becomes observable after a
  healthy start has let substantial local state accumulate — the policy's
  stitch-up-aware model declines to switch, so the run matches static
  instead of regressing.
"""

from __future__ import annotations

from repro.experiments.rate_bench import run_rate_benchmark

SCALE_FACTOR = 0.003
SEED = 2004


def test_rate_bench_acceptance_and_record():
    result = run_rate_benchmark(scale_factor=SCALE_FACTOR, seed=SEED)

    assert result["all_verified"], "rate-adaptive answers diverged from static"
    scenarios = result["scenarios"]

    for name in ("slow", "bursty"):
        for engine, mode in scenarios[name]["modes"].items():
            context = f"{name}/{engine}"
            assert mode["rate_switch_fired"], (
                f"{context}: the source-rate policy never switched plans"
            )
            assert mode["adaptive"]["phases"] >= 2, (
                f"{context}: no corrective phase boundary despite a switch"
            )
            assert mode["speedup_simulated"] >= 1.3, (
                f"{context}: rate adaptivity below the 1.3x bar "
                f"({mode['speedup_simulated']}x)"
            )

    # Flaky: the collapse is only observable after enough local state has
    # accumulated that stitch-up would dominate; the policy must decline
    # (and therefore match static execution rather than regress).
    for engine, mode in scenarios["flaky"]["modes"].items():
        assert not mode["rate_switch_fired"], (
            f"flaky/{engine}: switched despite prohibitive sunk state"
        )
        assert mode["speedup_simulated"] >= 0.99, (
            f"flaky/{engine}: declining the switch still regressed "
            f"({mode['speedup_simulated']}x)"
        )
