"""Tests for the Figure 3 testbed scenarios and the paper's orderings.

These pin the *shape* claims of the paper's evaluation (Section V) at
reduced durations, so the full benchmark suite can't silently drift.
"""

import pytest

from repro.core.combiner import CombinerChain
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.testbed import TestbedParams, VARIANTS, build_testbed
from repro.traffic.iperf import run_ping, run_tcp_flow, run_udp_flow


class TestConstruction:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_builds_and_pings(self, variant):
        testbed = build_testbed(variant, seed=1)
        result = run_ping(testbed.path(), count=3, interval=2e-3)
        assert result.received == 3

    @pytest.mark.parametrize("variant", scenario_names())
    def test_aliases_resolve_to_existing_nodes_and_links(self, variant):
        testbed = build_testbed(variant)
        assert isinstance(testbed.chain, CombinerChain)
        aliases = testbed.aliases()
        links = [link.name for link in testbed.network.links]
        claim_aliases = {a for a in aliases if "." in a}
        assert sorted(set(aliases) - claim_aliases) == sorted(
            f"{kind}{i}" for i in range(len(testbed.routers))
            for kind in ("r", "link_a", "link_b")
        )
        for alias, name in aliases.items():
            if alias.startswith("link_"):
                assert links.count(name) == 1, (alias, name)
            else:
                assert name in testbed.network.nodes, (alias, name)
        # one claim-link alias per (replica, neighbour): the shielded router
        claims = list(testbed.chain.claim_links())
        assert {a: aliases[a] for a in claim_aliases} == {
            f"link_a{i}.{n}": link.name for i, n, link in claims
        }
        if variant == "fattree_shielded3":
            assert sorted(claim_aliases) == sorted(
                f"link_a{i}.{n}" for i in range(3)
                for n in ("edge1", "edge2", "core1")
            )
            assert len({link.name for _i, _n, link in claims}) == 9
            assert aliases["link_a1.edge1"] == aliases["link_a1"]
        else:
            assert not claim_aliases and not claims
        for i, branch in enumerate(testbed.branches):
            assert aliases[f"r{i}"] == branch[0].name == testbed.routers[i].name

    @pytest.mark.parametrize(
        "variant", [v for v in VARIANTS if get_scenario(v).depth == 1])
    def test_depth_one_branches_are_the_routers(self, variant):
        testbed = build_testbed(variant)
        assert testbed.branches == [[r] for r in testbed.routers]

    def test_transport3_branches_are_three_switches_deep(self):
        testbed = build_testbed("transport3")
        assert [len(branch) for branch in testbed.branches] == [3, 3, 3]

    def test_sampled2_attaches_a_divergence_watcher(self):
        assert build_testbed("sampled2").chain.watcher is not None
        assert build_testbed("central3").chain.watcher is None

    @pytest.mark.parametrize(
        "variant", [v for v in VARIANTS if get_scenario(v).topology != "chain"])
    def test_non_chain_scenarios_cannot_run_under_reactive_control(self, variant):
        with pytest.raises(ValueError, match="reactive control"):
            build_testbed(variant, install_routes=False)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_testbed("central7")

    def test_k_matches_variant(self):
        assert build_testbed("central5").chain.k == 5
        assert build_testbed("dup3").chain.k == 3
        assert build_testbed("linespeed").chain.k == 1

    def test_pox_variant_uses_controller_transport(self):
        testbed = build_testbed("pox3")
        assert testbed.chain.compare_host is None
        assert testbed.chain.controller is not None

    def test_dup_variant_has_no_compare(self):
        assert build_testbed("dup3").compare_core is None

    def test_params_override(self):
        params = TestbedParams(link_delay=1e-3)
        testbed = build_testbed("linespeed", params=params)
        result = run_ping(testbed.path(), count=2, interval=5e-3)
        assert result.avg_rtt_ms > 8.0  # 8 hops x 1 ms

    def test_seed_override_changes_rng_only(self):
        a = build_testbed("linespeed", seed=1)
        b = build_testbed("linespeed", seed=2)
        assert a.params.seed == 1 and b.params.seed == 2


class TestPaperShapes:
    """The ordering claims of Table I / Figures 4-7 at small scale."""

    @pytest.fixture(scope="class")
    def measurements(self):
        tcp, udp, rtt = {}, {}, {}
        for variant in ("linespeed", "dup3", "dup5", "central3", "central5"):
            tcp[variant] = run_tcp_flow(
                build_testbed(variant, seed=1).path(), duration=0.1
            ).throughput_mbps
            udp[variant] = run_udp_flow(
                build_testbed(variant, seed=1).path(),
                rate_bps=300e6,
                duration=0.05,
                send_cost=TestbedParams().udp_send_cost,
            ).throughput_mbps
            rtt[variant] = run_ping(
                build_testbed(variant, seed=1).path(), count=20, interval=1e-3
            ).avg_rtt_ms
        return tcp, udp, rtt

    def test_security_costs_tcp_bandwidth(self, measurements):
        tcp, _udp, _rtt = measurements
        assert tcp["linespeed"] > tcp["central3"] > tcp["central5"]
        assert tcp["linespeed"] > tcp["dup3"] > tcp["dup5"]

    def test_combining_beats_duplication_for_tcp(self, measurements):
        tcp, _udp, _rtt = measurements
        # "removing the duplicate packets (by combining) increases the
        # throughput visibly"
        assert tcp["central3"] > tcp["dup3"]
        assert tcp["central5"] > tcp["dup5"]

    def test_udp_scales_down_with_k(self, measurements):
        _tcp, udp, _rtt = measurements
        assert udp["linespeed"] >= udp["central3"] > udp["central5"]
        assert udp["dup3"] > udp["dup5"]

    def test_rtt_ordering_matches_table1(self, measurements):
        _tcp, _udp, rtt = measurements
        assert (
            rtt["linespeed"]
            < rtt["dup3"]
            < rtt["dup5"]
            < rtt["central3"]
            < rtt["central5"]
        )

    def test_tcp_less_resilient_than_udp(self, measurements):
        tcp, udp, _rtt = measurements
        # the combiner scenarios hurt TCP (congestion control reacts to
        # every artefact) far more than UDP — Section V-B's comparison
        # of Figures 4 and 5
        assert tcp["central3"] / tcp["linespeed"] < udp["central3"] / udp["linespeed"]

    def test_pox_far_slower_than_central(self):
        pox = run_tcp_flow(build_testbed("pox3", seed=1).path(), duration=0.05)
        central = run_tcp_flow(build_testbed("central3", seed=1).path(), duration=0.05)
        assert central.throughput_mbps > 3 * pox.throughput_mbps
