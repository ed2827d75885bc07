#!/usr/bin/env python3
"""Security comes at a price: reproduce the Table I trade-off.

Measures TCP throughput, max UDP throughput (loss < 0.5%) and ping RTT
for the paper's five data-plane scenarios and prints them next to the
paper's numbers.  Absolute values depend on the calibrated testbed; the
*shape* — who wins, by roughly what factor — is the reproduction target.

Run:  python examples/performance_tradeoff.py           (about a minute)
      python examples/performance_tradeoff.py --quick   (rougher, faster)
      python examples/performance_tradeoff.py --jobs 4  (sharded over 4
          worker processes; the merged result is bit-identical to serial)
"""

import sys

from repro.analysis.records import paper_table1_values
from repro.analysis.report import render_table1
from repro.farm.executor import FarmExecutor
from repro.plan.builtin import builtin_plan


def main() -> None:
    quick = "--quick" in sys.argv
    jobs = int(sys.argv[sys.argv.index("--jobs") + 1]) if "--jobs" in sys.argv else 1
    print("measuring the five scenarios"
          + (" (quick mode)" if quick else "")
          + (f" on {jobs} workers" if jobs > 1 else "") + " ...\n")
    values = builtin_plan("table1", quick=quick).run(FarmExecutor(jobs=jobs))
    print(render_table1(values, paper=paper_table1_values()))
    print()

    tcp = values["tcp_mbps"]
    udp = values["udp_mbps"]
    rtt = values["rtt_ms"]
    print("observations (Section V-B), reproduced:")
    print(f"  * security costs bandwidth: TCP {tcp['linespeed']:.0f} -> "
          f"{tcp['central3']:.0f} -> {tcp['central5']:.0f} Mbit/s "
          "(Linespeed -> Central3 -> Central5)")
    print(f"  * combining beats duplication for TCP: Central3 "
          f"{tcp['central3']:.0f} vs Dup3 {tcp['dup3']:.0f} Mbit/s")
    print(f"  * UDP degrades more gently: Central3 keeps "
          f"{100 * udp['central3'] / udp['linespeed']:.0f}% of Linespeed "
          f"(TCP keeps {100 * tcp['central3'] / tcp['linespeed']:.0f}%)")
    print(f"  * RTT ordering: {rtt['linespeed']:.3f} < {rtt['dup3']:.3f} < "
          f"{rtt['dup5']:.3f} < {rtt['central3']:.3f} < "
          f"{rtt['central5']:.3f} ms")


if __name__ == "__main__":
    main()
