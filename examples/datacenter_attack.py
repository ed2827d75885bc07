#!/usr/bin/env python3
"""The Section VI case study: a routing attack in the datacenter.

Replays the paper's three scenario runs on a Clos pod slice:

1. baseline — all switches benign: 10 perfect echo cycles, screening
   (interface taps, cross-checked by spans) confirms nothing strays;
2. attack — the aggregation switch mirrors firewall-bound packets to a
   core switch and blackholes the victim's return traffic: 20 requests
   at fw1, 0 responses at vm1;
3. protected — the malicious switch runs inside a NetCo shielded router
   with two benign replicas: the attack is fully masked.

Run:  python examples/datacenter_attack.py
"""

from repro.plan.builtin import builtin_plan


def describe(result: dict) -> None:
    screening = result["screening"]
    print(f"--- {result['scenario']} ---")
    print(f"  echo requests sent by vm1:    {result['requests_sent']}")
    print(f"  requests arriving at fw1:     {result['requests_at_fw1']}")
    print(f"  responses arriving at vm1:    {result['responses_at_vm1']}")
    print(f"  test packets off benign path: {screening['strays']} "
          f"{screening['stray_nodes'] or ''}")
    if result["scenario"] == "protected":
        print(f"  copies released by compare:   {result['compare_released']}")
        print(f"  mirror copies dying unreleased: "
              f"{result['compare_expired_unreleased']}")
        print(f"  single-source alarms raised:  {result['single_source_alarms']}")
    print()


def main() -> None:
    # the `repro casestudy` plan: one casestudy.run record per scenario
    baseline, attack, protected = builtin_plan("casestudy", seed=7).run()

    print("Datacenter routing-attack case study (Section VI)\n")
    describe(baseline)

    describe(attack)
    print("  -> the paper's observation, reproduced: 'After 10 requests "
          "sent, we witness 20 requests arriving at fw1 and 0 responses "
          "arriving at vm1.'\n")

    describe(protected)
    print("  -> mirrored packets reached the compare but 'could never win "
          "the majority decision'; responses were released two-of-three; "
          "all 10 cycles completed.")

    assert baseline["responses_at_vm1"] == 10
    assert attack["requests_at_fw1"] == 20 and attack["responses_at_vm1"] == 0
    assert protected["responses_at_vm1"] == 10
    assert protected["screening"]["strays"] == 0


if __name__ == "__main__":
    main()
