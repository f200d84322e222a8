"""Tests for the power-aware resource manager (paper §7 integration)."""

import pytest

from repro.apps.registry import get_app
from repro.core.resource_manager import JobRequest, PowerAwareRM
from repro.errors import ConfigurationError, SchedulerError


def requests(n_modules=24):
    return [
        JobRequest("j1", get_app("mhd"), n_modules, arrival_s=0.0),
        JobRequest("j2", get_app("bt"), n_modules, arrival_s=1.0),
        JobRequest("j3", get_app("sp"), n_modules, arrival_s=2.0),
    ]


@pytest.fixture(scope="module")
def rm_args(ha8k_small, pvt_small):
    return ha8k_small, pvt_small


class TestValidation:
    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            JobRequest("x", get_app("mhd"), 0)
        with pytest.raises(ConfigurationError):
            JobRequest("x", get_app("mhd"), 4, arrival_s=-1.0)

    def test_manager_validation(self, rm_args):
        system, pvt = rm_args
        with pytest.raises(ConfigurationError):
            PowerAwareRM(system, pvt, 0.0)
        with pytest.raises(ConfigurationError):
            PowerAwareRM(system, pvt, 1000.0, admission="optimistic")

    def test_empty_and_duplicate_requests(self, rm_args):
        system, pvt = rm_args
        rm = PowerAwareRM(system, pvt, 70.0 * system.n_modules)
        with pytest.raises(ConfigurationError):
            rm.run([])
        with pytest.raises(ConfigurationError):
            rm.run(
                [
                    JobRequest("same", get_app("mhd"), 8),
                    JobRequest("same", get_app("bt"), 8),
                ]
            )

    def test_impossible_job_detected(self, rm_args):
        system, pvt = rm_args
        # One job whose fmin floor exceeds the whole budget: never admissible.
        rm = PowerAwareRM(system, pvt, 45.0 * 32)
        with pytest.raises(SchedulerError):
            rm.run([JobRequest("huge", get_app("dgemm"), 64)])


class TestScheduling:
    def test_all_jobs_complete(self, rm_args):
        system, pvt = rm_args
        rm = PowerAwareRM(system, pvt, 70.0 * system.n_modules)
        res = rm.run(requests())
        assert set(res.outcomes) == {"j1", "j2", "j3"}
        for o in res.outcomes.values():
            assert o.finish_s > o.start_s >= o.arrival_s

    def test_fcfs_start_order(self, rm_args):
        system, pvt = rm_args
        rm = PowerAwareRM(system, pvt, 70.0 * system.n_modules)
        res = rm.run(requests())
        starts = [res.outcomes[n].start_s for n in ("j1", "j2", "j3")]
        assert starts == sorted(starts)

    def test_power_scarce_serialises(self, rm_args):
        system, pvt = rm_args
        # Budget fits roughly one job's floor at a time.
        floor_one = 50.0 * 24
        rm = PowerAwareRM(system, pvt, floor_one * 1.2)
        res = rm.run(requests())
        # Jobs overlap little: later jobs wait for power.
        assert res.outcomes["j3"].wait_s > 0

    def test_concurrent_jobs_share_budget(self, rm_args):
        system, pvt = rm_args
        tight = PowerAwareRM(system, pvt, 55.0 * 72).run(requests())
        loose = PowerAwareRM(system, pvt, 90.0 * 72).run(requests())
        assert loose.makespan_s < tight.makespan_s


class TestOverprovisioningArgument:
    def test_power_aware_beats_worst_case(self, rm_args):
        """The §7 claim: overprovisioned admission improves throughput
        when power, not modules, is the scarce resource."""
        system, pvt = rm_args
        reqs = [
            JobRequest("a", get_app("mhd"), 24, arrival_s=0.0),
            JobRequest("b", get_app("bt"), 24, arrival_s=1.0),
            JobRequest("c", get_app("sp"), 24, arrival_s=2.0),
            JobRequest("d", get_app("mvmc"), 24, arrival_s=3.0),
        ]
        total = 62.0 * 96
        aware = PowerAwareRM(system, pvt, total, admission="power-aware").run(reqs)
        worst = PowerAwareRM(system, pvt, total, admission="worst-case").run(reqs)
        assert aware.makespan_s < worst.makespan_s
        assert aware.mean_wait_s <= worst.mean_wait_s


class TestPmtBuilds:
    @pytest.mark.parametrize("admission", ["power-aware", "worst-case"])
    def test_one_pmt_per_admitted_job(self, rm_args, pmt_builds, admission):
        """A job's PMT is built when it is admitted and reused at every
        later re-partition, however many events it lives through."""
        system, pvt = rm_args
        reqs = [
            JobRequest("a", get_app("mhd"), 24, arrival_s=0.0),
            JobRequest("b", get_app("bt"), 24, arrival_s=1.0),
            JobRequest("c", get_app("sp"), 24, arrival_s=2.0),
            JobRequest("d", get_app("mvmc"), 24, arrival_s=3.0),
        ]
        res = PowerAwareRM(system, pvt, 62.0 * 96, admission=admission).run(reqs)
        assert set(res.outcomes) == {"a", "b", "c", "d"}
        assert sorted(app for _, app, _ in pmt_builds) == ["bt", "mhd", "mvmc", "sp"]
        assert all(n == 24 for _, _, n in pmt_builds)
