"""Tests pinning the Section VI case study to the paper's exact numbers."""

import pytest

from repro.analysis.tasks import casestudy_run
from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.scenarios.datacenter import (
    BENIGN_PATH,
    CaseStudyResult,
    ScreeningReport,
    build_pod_slice,
    mount_attack,
    run_echo_test,
)


def run(name, seed=1, echo_count=10):
    """One ``casestudy.run`` record, back in its dataclass form."""
    record = casestudy_run(run=name, seed=seed, echo_count=echo_count)
    for key in ("screening", "span_screening"):
        record[key] = ScreeningReport(**record[key])
    return CaseStudyResult(**record)


@pytest.fixture(scope="module")
def baseline():
    return run("baseline")


@pytest.fixture(scope="module")
def attack():
    return run("attack")


@pytest.fixture(scope="module")
def protected():
    return run("protected")


class TestBaseline:
    def test_ten_perfect_cycles(self, baseline):
        assert baseline.requests_sent == 10
        assert baseline.requests_at_fw1 == 10
        assert baseline.responses_at_vm1 == 10

    def test_no_stray_packets(self, baseline):
        assert baseline.screening.strays == 0
        assert baseline.screening.stray_nodes == []

    def test_screening_saw_the_benign_path(self, baseline):
        for node in ("edge2", "agg1", "edge1"):
            assert baseline.screening.per_node.get(node, 0) > 0
        # 10 requests + 10 responses traverse each path switch
        assert baseline.screening.per_node["agg1"] == 20


class TestAttack:
    def test_twenty_requests_at_fw1(self, attack):
        # "After 10 requests sent, we witness 20 requests arriving at fw1"
        assert attack.requests_sent == 10
        assert attack.requests_at_fw1 == 20

    def test_zero_responses_at_vm1(self, attack):
        assert attack.responses_at_vm1 == 0

    def test_mirrored_copies_cross_the_core(self, attack):
        assert "core1" in attack.screening.stray_nodes
        assert attack.screening.per_node["core1"] == 10

    def test_no_other_strays(self, attack):
        assert attack.screening.stray_nodes == ["core1"]


class TestProtected:
    def test_all_ten_cycles_complete(self, protected):
        assert protected.requests_sent == 10
        assert protected.responses_at_vm1 == 10

    def test_fw1_sees_only_the_true_requests(self, protected):
        assert protected.requests_at_fw1 == 10

    def test_no_packet_strays_from_benign_path(self, protected):
        assert protected.screening.strays == 0

    def test_mirrored_copies_died_in_the_compare(self, protected):
        # "we saw the mirrored packets arriving, yet none of them left
        # the compare"
        assert protected.compare_expired_unreleased >= 10
        assert protected.single_source_alarms >= 10

    def test_responses_released_on_two_of_three(self, protected):
        # 10 requests + 10 responses released despite the dropped copies
        assert protected.compare_released == 20


class TestVariants:
    def test_malicious_replica_position_irrelevant(self):
        for position in (0, 1, 2):
            testbed = build_testbed("fattree_shielded3", seed=3)
            mount_attack(testbed.network, testbed.chain, replica=position)
            result = run_echo_test(
                testbed.network, testbed.chain, "protected", echo_count=5
            )
            assert result.responses_at_vm1 == 5, f"replica {position}"

    def test_k5_shield_also_protects(self):
        network, shield = build_pod_slice(4, TestbedParams().compare_config(5))
        assert shield.k == 5
        mount_attack(network, shield)
        result = run_echo_test(network, shield, "protected", echo_count=5)
        assert result.responses_at_vm1 == 5
        assert result.requests_at_fw1 == 5

    def test_benign_path_constant(self):
        assert BENIGN_PATH == ("vm1", "edge2", "agg1", "edge1", "fw1")

    def test_the_protected_run_is_the_registered_scenario(self):
        testbed = build_testbed("fattree_shielded3", seed=1)
        assert (testbed.h1.name, testbed.h2.name) == ("vm1", "fw1")
        assert [r.name for r in testbed.routers] == [
            "agg1_r0", "agg1_r1", "agg1_r2"]
        assert testbed.routers == testbed.chain.routers
        assert testbed.chain.endpoint_a is testbed.chain.endpoint_b
